"""Command-line interface: run the paper's algorithms on real or
generated graphs.

Examples::

    python -m repro info --generate grid:12x12
    python -m repro kdom --generate torus:10x10 --k 3
    python -m repro mst --generate random:200:0.05 --algorithm fast
    python -m repro mst --graph my_network.edges --algorithm ghs
    python -m repro partition --generate tree:500 --k 8
    python -m repro faults --generate random:60:0.08 --workload kdom --k 2 \
        --drop 0.05 --crash 7@3 --reliable
    python -m repro trace --graph tree:n=64 --algo fast-mst --out trace.jsonl
    python -m repro report trace.jsonl
    python -m repro report trace.jsonl --json
    python -m repro report --bench
    python -m repro sweep --workload kdom --spec tree:n=200 --spec grid:12x12 \
        --seeds 0,1,2 --ks 2,4,8 --workers 4 --out sweep.jsonl
    python -m repro sweep --fast --shard 0/2 --out shard0.jsonl
    python -m repro sweep --fast --profile-workers --out sweep.jsonl
    python -m repro status sweep.jsonl --final
    python -m repro top --dir .
    python -m repro sweep --fast --deadline-s 30 --out sweep.jsonl
    python -m repro merge-stores shard0.jsonl shard1.jsonl --out merged.jsonl
    python -m repro merge-stores shard0.jsonl --allow-partial --out part.jsonl
    python -m repro repair-store sweep.jsonl
    python -m repro chaos --fast --seed 7 --out-dir chaos-drill

Graph specs: ``grid:RxC``, ``torus:RxC``, ``ring:N``, ``tree:N``,
``random:N:P`` (random connected with extra-edge probability P),
``complete:N``; or ``--graph FILE`` with a ``u v [weight]`` edge list.
Every kind also accepts key=value segments (``tree:n=64``,
``grid:rows=3,cols=5``, ``random:n=50,p=0.1``), and ``--graph`` falls
back to spec parsing when its value is not a file.  Weights are
auto-assigned (distinct, polynomial) when missing and an algorithm
needs them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .applications.aggregates import count_nodes, leader_election
from .core import dom_partition, fastdom_graph
from .graphs import (
    GraphSpecError,
    RootedTree,
    assign_unique_weights,
    diameter,
    has_unique_weights,
    load_edge_list,
    parse_graph_spec,
)
from .graphs.graph import Graph
from .mst import fast_mst, ghs_mst, kruskal_mst, pipeline_only_mst
from .sim import (
    DEFAULT_WORD_LIMIT,
    RELIABLE_HEADER_WORDS,
    FaultConfig,
    FaultConfigError,
    FaultInjector,
    Network,
    make_reliable,
)
from .verify import (
    check_run_report,
    domination_radius,
    nontermination_detectors,
    surviving_kdomination,
)


def build_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        # A --graph value that is not a file but looks like a generator
        # spec (contains ':') is treated as one, so
        # `repro trace --graph tree:n=64 ...` works without --generate.
        if os.path.exists(args.graph):
            with open(args.graph) as handle:
                return load_edge_list(handle.read())
        if ":" in args.graph:
            return generate(args.graph, seed=args.seed)
        raise SystemExit(
            f"--graph {args.graph!r}: no such file (expected an edge list, "
            f"or a spec like tree:n=64 / grid:4x4)"
        )
    if args.generate:
        return generate(args.generate, seed=args.seed)
    raise SystemExit("one of --graph or --generate is required")


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a spec like ``grid:12x12`` or ``tree:n=64``.

    Thin CLI wrapper over :func:`repro.graphs.parse_graph_spec` (the
    parser proper lives in the graph layer so the sweep subsystem can
    share it); parse errors become the usual ``SystemExit``.
    """
    try:
        return parse_graph_spec(spec, seed=seed)
    except GraphSpecError as exc:
        raise SystemExit(str(exc))


def ensure_weights(graph: Graph, seed: int) -> Graph:
    if not has_unique_weights(graph):
        assign_unique_weights(graph, seed=seed)
    return graph


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    g = build_graph(args)
    print(f"nodes:    {g.num_nodes}")
    print(f"edges:    {g.num_edges}")
    print(f"diameter: {diameter(g)}")
    leader, rounds, _net = leader_election(g)
    print(f"leader (max id): {leader}  [elected in {rounds} rounds]")
    total, staged = count_nodes(g, leader)
    print(f"distributed count from leader: {total} "
          f"[{staged.total_rounds} rounds]")
    return 0


def cmd_kdom(args: argparse.Namespace) -> int:
    g = ensure_weights(build_graph(args), args.seed)
    dominators, partition, staged = fastdom_graph(g, args.k)
    radius = domination_radius(g, dominators)
    print(f"k = {args.k}")
    print(f"|D| = {len(dominators)}  "
          f"(bound {max(1, g.num_nodes // (args.k + 1))})")
    print(f"domination radius = {radius}")
    print(f"clusters = {partition.num_clusters}")
    print(f"rounds = {staged.total_rounds}  {staged.breakdown()}")
    if args.verbose:
        print(f"D = {sorted(dominators, key=str)}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    g = build_graph(args)
    root = min(g.nodes, key=str)
    rt = RootedTree.from_graph(g, root)
    partition, staged = dom_partition(g, root, rt.parent, args.k)
    sizes = sorted(c.size for c in partition.clusters)
    radii = [c.radius_in(g) for c in partition.clusters]
    print(f"clusters = {partition.num_clusters}")
    print(f"sizes: min {sizes[0]}, max {sizes[-1]} (k+1 = {args.k + 1})")
    print(f"max radius = {max(radii)} (bound 5k+2 = {5 * args.k + 2})")
    print(f"rounds = {staged.total_rounds}")
    return 0


def cmd_mst(args: argparse.Namespace) -> int:
    g = ensure_weights(build_graph(args), args.seed)
    reference = kruskal_mst(g)
    if args.algorithm == "fast":
        edges, staged, diag = fast_mst(g)
        rounds = staged.total_rounds
        extra = f"k={diag['k']}, clusters={diag['clusters']}"
    elif args.algorithm == "ghs":
        edges, metrics = ghs_mst(g)
        rounds, extra = metrics.rounds, "controlled GHS"
    elif args.algorithm == "pipeline":
        edges, staged = pipeline_only_mst(g)
        rounds, extra = staged.total_rounds, "pipeline over singletons"
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown algorithm {args.algorithm}")
    weight = sum(g.weight(u, v) for u, v in edges)
    status = "exact" if edges == reference else "WRONG"
    print(f"algorithm = {args.algorithm} ({extra})")
    print(f"MST weight = {weight}  [{status} vs sequential Kruskal]")
    print(f"rounds = {rounds}")
    if args.verbose:
        for u, v in sorted(edges, key=str):
            print(f"  {u} - {v}  ({g.weight(u, v)})")
    return 0 if edges == reference else 1


def parse_crash_spec(specs) -> list:
    """Parse repeated ``--crash NODE@ROUND`` flags into (node, round)."""
    crashes = []
    for spec in specs or ():
        node_text, sep, round_text = spec.partition("@")
        if not sep:
            raise SystemExit(
                f"bad crash spec {spec!r}: expected NODE@ROUND, e.g. 7@3"
            )
        try:
            round_number = int(round_text)
        except ValueError:
            raise SystemExit(f"bad crash round in {spec!r}")
        node: object = node_text
        try:
            node = int(node_text)
        except ValueError:
            pass  # string node labels are legal in edge-list graphs
        crashes.append((node, round_number))
    return crashes


def cmd_faults(args: argparse.Namespace) -> int:
    g = build_graph(args)
    try:
        config = FaultConfig(
            drop_rate=args.drop,
            duplicate_rate=args.duplicate,
            delay_rate=args.delay,
            max_delay=args.max_delay,
            crashes=parse_crash_spec(args.crash),
            seed=args.fault_seed,
        )
    except FaultConfigError as exc:
        raise SystemExit(f"bad fault configuration: {exc}")

    root = min(g.nodes, key=str)
    if args.workload == "bfs":
        from .primitives.bfs import BFSTreeProgram

        workload_graph = g
        factory = lambda ctx: BFSTreeProgram(ctx, root)  # noqa: E731
    elif args.workload == "flood":
        from .primitives.flooding import FloodProgram

        workload_graph = g
        factory = lambda ctx: FloodProgram(ctx, root, value=1)  # noqa: E731
    else:  # kdom: the tree DP on a BFS spanning tree of the graph
        from .core.kdom_tree import TreeKDomProgram
        from .graphs.distances import bfs_tree

        _dist, parent_of = bfs_tree(g, root)
        workload_graph = g.edge_subgraph(
            [(v, p) for v, p in parent_of.items() if p is not None]
        )
        factory = lambda ctx: TreeKDomProgram(  # noqa: E731
            ctx, root, parent_of, args.k
        )

    word_limit = DEFAULT_WORD_LIMIT
    if args.reliable:
        if args.timeout < 3:
            raise SystemExit(
                f"bad --timeout: must be >= 3 rounds (the fault-free "
                f"round trip is 2), got {args.timeout}"
            )
        factory = make_reliable(
            factory, timeout=args.timeout, max_retries=args.retries
        )
        word_limit += RELIABLE_HEADER_WORDS
    network = Network(
        workload_graph, word_limit=word_limit, faults=FaultInjector(config)
    )
    report = network.run(factory, max_rounds=args.max_rounds)

    print(f"workload = {args.workload} on n={workload_graph.num_nodes} "
          f"(reliable={'yes' if args.reliable else 'no'})")
    print(f"fault plan: {len(report.plan.events)} event(s), "
          f"seed {config.seed}")
    print(report.summary())

    health = check_run_report(report)
    if args.workload == "kdom":
        flags = network.output_field("in_dominating_set")
        dominators = {v for v, flag in flags.items() if flag}
        health = health.merged_with(
            surviving_kdomination(
                workload_graph, dominators, args.k, crashed=report.crashed()
            )
        )
    detectors = nontermination_detectors(network.outputs())
    if detectors:
        print(f"non-termination detected locally by: "
              f"{sorted(detectors, key=str)}")
    print(f"resilience: {health.summary()}")
    if args.verbose:
        for event in report.plan.events:
            print(f"  round {event.round:>4}  {event.kind:<9} "
                  f"{event.node} -> {event.target}  (+{event.detail})")
    return 0 if health.ok else 1


def _trace_fault_injector(args: argparse.Namespace) -> Optional[FaultInjector]:
    """Build the optional fault injector for ``repro trace``."""
    if not (
        args.drop or args.duplicate or args.delay or args.crash
    ):
        return None
    if args.algo not in ("bfs", "flood"):
        raise SystemExit(
            f"fault flags are only supported for the bfs/flood workloads, "
            f"not {args.algo!r} (composite drivers build internal networks "
            f"the injector cannot follow)"
        )
    try:
        config = FaultConfig(
            drop_rate=args.drop,
            duplicate_rate=args.duplicate,
            delay_rate=args.delay,
            max_delay=args.max_delay,
            crashes=parse_crash_spec(args.crash),
            seed=args.fault_seed,
        )
    except FaultConfigError as exc:
        raise SystemExit(f"bad fault configuration: {exc}")
    return FaultInjector(config)


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        JsonlTraceWriter,
        MetricsCollector,
        ascii_timeline,
        channel_heatmap,
        observe,
        read_trace,
        summary_lines,
        validate_trace,
    )

    g = build_graph(args)
    injector = _trace_fault_injector(args)
    meta = {
        "algo": args.algo,
        "spec": args.graph or args.generate,
        "seed": args.seed,
        "nodes": g.num_nodes,
        "edges": g.num_edges,
    }
    writer = JsonlTraceWriter(args.out, meta=meta)
    collector = MetricsCollector()
    staged = None
    with observe(writer, collector) as obs:
        if args.algo == "fast-mst":
            ensure_weights(g, args.seed)
            _edges, staged, _diag = fast_mst(g)
        elif args.algo == "kdom":
            ensure_weights(g, args.seed)
            _dominators, _partition, staged = fastdom_graph(g, args.k)
        elif args.algo == "kdom-tree":
            from .core import tree_kdominating_set

            root = min(g.nodes, key=str)
            rooted = RootedTree.from_graph(g, root)
            _dominators, _partition, staged = tree_kdominating_set(
                g, root, rooted.parent, args.k
            )
        else:
            root = min(g.nodes, key=str)
            if args.algo == "bfs":
                from .primitives.bfs import BFSTreeProgram

                factory = lambda ctx: BFSTreeProgram(ctx, root)  # noqa: E731
            else:  # flood
                from .primitives.flooding import FloodProgram

                factory = lambda ctx: FloodProgram(ctx, root, value=1)  # noqa: E731
            network = Network(g, faults=injector)
            network.run(factory, max_rounds=args.max_rounds)
        if staged is not None:
            obs.record_phases(staged)

    trace = read_trace(args.out)
    problems = validate_trace(trace)
    print(f"wrote {args.out} ({len(trace.events)} events, "
          f"schema {trace.schema})")
    for line in summary_lines(trace, collector):
        print(line)
    if staged is not None:
        breakdown = trace.phase_breakdown()
        matches = breakdown == dict(staged.breakdown())
        print(f"phase totals match StagedRun breakdown: "
              f"{'yes' if matches else 'NO — ' + repr(breakdown)}")
        if not matches:
            problems.append("trace phases disagree with StagedRun")
    print()
    print(ascii_timeline(trace, width=args.width))
    print()
    print(channel_heatmap(trace, channels=args.channels, width=args.width))
    if problems:
        print(f"\ntrace INVALID: {len(problems)} problem(s)")
        for problem in problems[:10]:
            print(f"  - {problem}")
        return 1
    return 0


#: Schema tag on ``repro report --json`` output.
REPORT_SCHEMA = "repro-report/1"


def _report_json(args: argparse.Namespace, scan, problems) -> int:
    """Emit the machine-readable report document (``--json``)."""
    import json

    doc = {
        "schema": REPORT_SCHEMA,
        "trace": args.trace,
        "trace_schema": scan.schema if scan is not None else None,
        "meta": scan.meta if scan is not None else {},
        "events": scan.events_total if scan is not None else 0,
        "by_kind": scan.by_kind if scan is not None else {},
        "fabric_events": scan.fabric_by_kind if scan is not None else {},
        "runs": len(scan.runs) if scan is not None else 0,
        "phases": len(scan.phases) if scan is not None else 0,
        "phase_breakdown": scan.phase_breakdown() if scan is not None else {},
        "total_rounds": scan.total_rounds if scan is not None else 0,
        "valid": not problems,
        "problems": list(problems),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 1 if problems else 0


def _report_bench(args: argparse.Namespace) -> int:
    """Render the perf trajectory (``--bench``) from the BENCH history."""
    from . import perf

    path = args.history or perf.DEFAULT_HISTORY
    entries, problems = perf.load_history(path)
    if not entries:
        print(f"no perf history at {path} — run `repro perf` to record one")
        return 1
    if getattr(args, "warehouse", None):
        from .warehouse import Warehouse, WarehouseError

        try:
            with Warehouse(args.warehouse) as warehouse:
                added, skipped = warehouse.ingest_history(entries)
        except WarehouseError as exc:
            raise SystemExit(str(exc))
        print(
            f"warehouse {args.warehouse}: +{added} bench entr"
            f"{'y' if added == 1 else 'ies'}, {skipped} already recorded — "
            f"query with `repro query --bench --db {args.warehouse}`"
        )
    for line in perf.perf_trajectory(entries, source=path):
        print(line)
    for problem in problems[:5]:
        print(f"note: {problem}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .obs import (
        TraceValidationError,
        ascii_timeline,
        channel_heatmap,
        scan_trace,
        summary_lines,
    )

    if args.bench:
        return _report_bench(args)
    if not args.trace:
        raise SystemExit("a trace file is required (unless using --bench)")
    # One streaming pass (iter_trace) — constant-ish memory, so
    # sweep-scale traces report without materialising their event list.
    try:
        scan = scan_trace(args.trace)
    except TraceValidationError as exc:
        if args.json:
            return _report_json(args, None, list(exc.problems))
        print(f"unreadable trace {args.trace!r}:")
        for problem in exc.problems[:10]:
            print(f"  - {problem}")
        return 1
    problems = scan.problems()
    if args.json:
        return _report_json(args, scan, problems)
    meta = ", ".join(f"{k}={v}" for k, v in sorted(scan.meta.items()))
    print(f"trace {args.trace} (schema {scan.schema})")
    if meta:
        print(f"meta: {meta}")
    for line in summary_lines(scan):
        print(line)
    print()
    print(ascii_timeline(scan, width=args.width))
    print()
    print(channel_heatmap(scan, channels=args.channels, width=args.width))
    if problems:
        print(f"\ntrace INVALID: {len(problems)} problem(s)")
        for problem in problems[:10]:
            print(f"  - {problem}")
        return 1
    print("\ntrace valid")
    return 0


def _parse_int_list(text: str, flag: str) -> tuple:
    """Parse a ``--seeds 0,1,2`` style comma list of integers."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"bad {flag} {text!r}: expected a comma list of ints")
    if not values:
        raise SystemExit(f"bad {flag} {text!r}: at least one value required")
    return values


#: ``repro sweep`` exit code for "ran fine but the grid (or shard) is
#: not yet complete" — e.g. bounded by ``--max-cells``, degraded by
#: quarantined cells, or merged with holes.  Distinct from 1 (a crash
#: or verify failure) so CI can assert the difference.
EXIT_SWEEP_INCOMPLETE = 3


def _build_grid(args: argparse.Namespace, verify: bool = False):
    """The shared grid-construction path of ``sweep`` and ``chaos``."""
    from .batch import SweepGrid, WorkloadError, fast_grid

    try:
        if args.fast:
            return fast_grid(args.workload)
        if not args.spec:
            raise SystemExit(
                "at least one --spec is required (or use --fast for the "
                "built-in CI grid)"
            )
        return SweepGrid(
            workload=args.workload,
            specs=tuple(args.spec),
            seeds=_parse_int_list(args.seeds, "--seeds"),
            ks=_parse_int_list(args.ks, "--ks"),
            verify=verify,
        )
    except WorkloadError as exc:
        raise SystemExit(str(exc))
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}")


def cmd_sweep(args: argparse.Namespace) -> int:
    import importlib

    from .batch import (
        StoreError,
        SweepCellError,
        SweepCrashError,
        parse_shard,
        run_sweep,
    )

    for module in args.imports or ():
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise SystemExit(f"--import {module}: {exc}")
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            raise SystemExit(f"bad --shard: {exc}")

    grid = _build_grid(args, verify=args.verify)

    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("bad --deadline-s: must be positive")
    if args.max_attempts is not None and args.max_attempts < 1:
        raise SystemExit("bad --max-attempts: must be >= 1")
    echo = print if args.verbose else (lambda line: None)
    profile_dir = args.profile_workers
    if profile_dir == "":
        profile_dir = (args.out or "sweep") + ".profiles"
    try:
        summary = run_sweep(
            grid,
            store_path=args.out,
            backend=args.backend,
            workers=args.workers,
            resume=not args.no_resume,
            max_cells=args.max_cells,
            shard=shard,
            echo=echo,
            deadline_s=args.deadline_s,
            max_attempts=args.max_attempts,
            retry_quarantined=args.retry_quarantined,
            telemetry=not args.no_telemetry,
            status_path=args.status,
            profile_dir=profile_dir,
        )
    except (StoreError, SweepCellError, SweepCrashError) as exc:
        raise SystemExit(str(exc))

    merged = summary.merged
    shard_note = f" [shard {args.shard}]" if shard is not None else ""
    state = "complete" if summary.complete else "INCOMPLETE"
    if summary.quarantined:
        state += f", {summary.quarantined} QUARANTINED"
    print(
        f"sweep {grid.workload}{shard_note}: {summary.total} cell(s) — "
        f"ran {summary.ran}, skipped {summary.skipped} ({state})"
    )
    print(
        f"backend={args.backend} workers={args.workers or 'auto'} "
        f"elapsed={summary.elapsed:.2f}s "
        f"({summary.cells_per_second:.1f} cells/s)"
    )
    print(
        f"merged: rounds(max)={merged.rounds} "
        f"messages={merged.traffic.messages} "
        f"words={merged.traffic.total_words}"
    )
    if args.out:
        print(f"store: {args.out}")
    if profile_dir is not None:
        from .batch import aggregate_profiles

        files, table = aggregate_profiles(profile_dir)
        if files:
            print(f"worker profiles: {len(files)} dump(s) in {profile_dir}")
            print(table)
        else:
            print(f"worker profiles: no dumps in {profile_dir} "
                  f"(every cell skipped?)")
    if grid.verify:
        bad = [
            row["cell"]
            for row in summary.rows
            if row.get("result", {}).get("ok") is False
        ]
        if bad:
            print(f"VERIFY FAILED for {len(bad)} cell(s): {bad[:5]}")
            return 1
        print("verify: all cells ok")
    if summary.complete and not summary.quarantined:
        return 0
    return EXIT_SWEEP_INCOMPLETE


def cmd_merge_stores(args: argparse.Namespace) -> int:
    from .batch import StoreError, merge_stores

    try:
        meta = merge_stores(
            args.stores,
            args.out,
            allow_partial=args.allow_partial,
            holes_path=args.holes,
        )
    except StoreError as exc:
        raise SystemExit(str(exc))
    holes = meta.get("holes", 0)
    print(
        f"merged {len(args.stores)} shard store(s) -> {args.out} "
        f"({meta['cells']} cells, workload {meta['workload']})"
    )
    if holes:
        manifest = args.holes or args.out + ".holes.json"
        print(
            f"PARTIAL merge: {holes} cell(s) missing — holes manifest "
            f"at {manifest}; resume with "
            f"`repro sweep --out {args.out}` to fill them"
        )
        return EXIT_SWEEP_INCOMPLETE
    return 0


def cmd_repair_store(args: argparse.Namespace) -> int:
    from .batch import StoreError, repair_store

    try:
        report, missing = repair_store(args.store, out_path=args.out)
    except StoreError as exc:
        raise SystemExit(str(exc))
    target = args.out or args.store
    print(f"repaired {args.store} -> {target}: {report.summary()}")
    if missing:
        shown = ", ".join(missing[:5])
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        print(
            f"{len(missing)} cell(s) lost: {shown}{more} — resume with "
            f"`repro sweep --out {target}` to re-run them"
        )
    else:
        print("no cells lost")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .batch import StoreError
    from .warehouse import IncompleteStoreError, Warehouse

    incomplete = False
    try:
        with Warehouse(args.db) as warehouse:
            for path in args.stores:
                try:
                    report = warehouse.ingest_store(
                        path, allow_partial=args.allow_partial
                    )
                except IncompleteStoreError as exc:
                    print(f"INCOMPLETE {exc}")
                    incomplete = True
                    continue
                print(report.describe())
                if report.holes:
                    incomplete = True
            print(f"warehouse {args.db}: {warehouse.row_count()} row(s) total")
    except StoreError as exc:
        raise SystemExit(str(exc))
    return EXIT_SWEEP_INCOMPLETE if incomplete else 0


def cmd_query(args: argparse.Namespace) -> int:
    from .batch import StoreError
    from .warehouse import (
        BENCH_FIELDS,
        DEFAULT_WAREHOUSE,
        QueryError,
        RESULT_FIELDS,
        Warehouse,
        bench_query_doc,
        bench_samples_from_entries,
        load_store_rows,
        parse_aggs,
        parse_group_by,
        parse_where,
        query_json,
        render_query_table,
        results_query_doc,
    )

    try:
        aggs = parse_aggs(args.agg)
        if args.bench:
            if args.store:
                raise QueryError(
                    "--bench reads a warehouse (--db) or BENCH history "
                    "(--history), not sweep stores"
                )
            where = parse_where(args.where, BENCH_FIELDS)
            group_by = parse_group_by(args.group_by, BENCH_FIELDS)
            if args.db:
                with Warehouse(args.db) as warehouse:
                    samples = warehouse.fetch_bench_samples()
            else:
                from . import perf

                path = args.history or perf.DEFAULT_HISTORY
                entries, _problems = perf.load_history(path)
                samples = bench_samples_from_entries(entries)
            doc = bench_query_doc(samples, where, group_by, aggs)
        else:
            if not args.metric:
                raise QueryError(
                    "--metric is required (e.g. --metric dominators; "
                    "or use --bench for perf history)"
                )
            where = parse_where(args.where, RESULT_FIELDS)
            group_by = parse_group_by(args.group_by, RESULT_FIELDS)
            if args.store:
                rows = load_store_rows(args.store)
            else:
                with Warehouse(args.db or DEFAULT_WAREHOUSE) as warehouse:
                    rows = warehouse.fetch_rows(where)
            doc = results_query_doc(rows, args.metric, where, group_by, aggs)
    except (QueryError, StoreError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(query_json(doc))
    else:
        for line in render_query_table(doc):
            print(line)
    return 0 if doc["rows_matched"] else EXIT_SWEEP_INCOMPLETE


def cmd_portfolio(args: argparse.Namespace) -> int:
    from .batch import (
        SweepCellError,
        SweepCrashError,
        portfolio_run,
        render_verdict,
        verdict_path_for,
    )

    seeds = _parse_int_list(args.seeds, "--seeds")
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("bad --deadline-s: must be positive")
    if args.max_attempts is not None and args.max_attempts < 1:
        raise SystemExit("bad --max-attempts: must be >= 1")
    echo = print if args.verbose else (lambda line: None)
    try:
        verdict, _summary = portfolio_run(
            args.workload,
            args.spec,
            seeds,
            k=args.k,
            reduce=args.reduce,
            store_path=args.out,
            backend=args.backend,
            workers=args.workers,
            resume=not args.no_resume,
            deadline_s=args.deadline_s,
            max_attempts=args.max_attempts,
            echo=echo,
        )
    except (ValueError, SweepCellError, SweepCrashError) as exc:
        # PortfolioError, WorkloadError and StoreError are ValueErrors.
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(verdict, sort_keys=True, indent=2))
    else:
        for line in render_verdict(verdict):
            print(line)
        if args.out:
            print(f"store: {args.out}")
            print(f"verdict: {verdict_path_for(args.out)}")
    if verdict["complete"] and verdict["best_seed"] is not None:
        return 0
    return EXIT_SWEEP_INCOMPLETE


def _watch_loop(render, interval: float) -> int:
    """Re-render a status view every ``interval`` seconds until ^C."""
    import time

    try:
        while True:
            lines, done = render()
            # ANSI home+clear keeps the view in place on real terminals
            # and is harmless noise when piped.
            print("\x1b[H\x1b[2J", end="")
            for line in lines:
                print(line)
            if done:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def cmd_status(args: argparse.Namespace) -> int:
    from .batch import (
        StoreError,
        SweepStore,
        read_status,
        render_status,
        render_store_status,
        status_path_for,
    )

    if args.final:
        try:
            meta, rows = SweepStore(args.store).load()
        except StoreError as exc:
            raise SystemExit(str(exc))
        if meta is None:
            raise SystemExit(f"{args.store}: no such store")
        ordered = [rows[key] for key in sorted(rows)]
        for line in render_store_status(meta, ordered):
            print(line)
        return 0

    path = (
        args.store
        if args.store.endswith(".status.json")
        else status_path_for(args.store)
    )

    def render(tolerant: bool = False):
        try:
            status = read_status(path)
        except (OSError, ValueError) as exc:
            # In watch mode a missing sidecar just means the first
            # heartbeat hasn't landed yet (or a read raced the
            # os.replace swap): render a placeholder and retry next
            # tick instead of dying.  One-shot keeps the hard failure.
            if tolerant:
                return [f"(waiting for {path}: {exc})"], False
            raise SystemExit(f"cannot read status file {path}: {exc}")
        state = str(status.get("state", ""))
        return render_status(status), state not in ("running", "starting")

    if args.watch:
        return _watch_loop(lambda: render(tolerant=True), args.interval)
    lines, _done = render()
    for line in lines:
        print(line)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import importlib

    from .serve import ServeConfig, run_server

    for module in args.imports or ():
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise SystemExit(f"--import {module}: {exc}")
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("bad --deadline-s: must be positive")
    if args.cache_size < 1:
        raise SystemExit("bad --cache-size: must be >= 1")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        cache_size=args.cache_size,
        deadline_s=args.deadline_s,
        max_attempts=args.max_attempts,
    )
    return run_server(config)


def cmd_top(args: argparse.Namespace) -> int:
    from .batch import find_status_files, read_status, render_top

    def render():
        paths = find_status_files(args.dir)
        statuses = []
        kept = []
        for path in paths:
            try:
                statuses.append(read_status(path))
                kept.append(path)
            except (OSError, ValueError):
                continue  # torn write or foreign file; skip this round
        all_done = bool(kept) and all(
            str(s.get("state", "")) not in ("running", "starting")
            for s in statuses
        )
        return render_top(statuses, kept), all_done

    if args.watch:
        return _watch_loop(render, args.interval)
    lines, _done = render()
    for line in lines:
        print(line)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .batch import PoolCrashError, SweepCrashError
    from .batch.chaos import run_chaos

    grid = _build_grid(args)
    echo = print if args.verbose else (lambda line: None)
    try:
        report = run_chaos(
            grid,
            seed=args.seed,
            out_dir=args.out_dir,
            workers=args.workers,
            deadline_s=args.deadline_s,
            max_attempts=args.max_attempts,
            kills=args.kills,
            hangs=args.hangs,
            slows=args.slows,
            corrupts=args.corrupts,
            poisons=args.poisons,
            echo=echo,
        )
    except (PoolCrashError, SweepCrashError) as exc:
        print(f"chaos drill CRASHED the fabric: {exc}")
        return 1
    except ValueError as exc:
        raise SystemExit(f"bad chaos drill: {exc}")

    for line in report.lines():
        print(line)
    for event in report.retry_events:
        kind, task, attempt, reason = event
        print(f"  {kind}: task {task} attempt {attempt} ({reason})")
    if not report.verified:
        return 1
    if report.quarantined_cells:
        return EXIT_SWEEP_INCOMPLETE
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from . import perf

    return perf.main(
        fast=args.fast,
        reps=args.reps,
        output=args.output if args.output is not None else perf.DEFAULT_OUTPUT,
        baseline_path=(
            args.baseline if args.baseline is not None else perf.DEFAULT_BASELINE
        ),
        gate_factor=(
            args.gate_factor
            if args.gate_factor is not None
            else perf.DEFAULT_GATE_FACTOR
        ),
        profile=args.profile,
        no_gate=args.no_gate,
        obs=args.obs,
        workload=args.workload,
        compare=args.compare,
        telemetry=args.telemetry,
        history=None if args.no_history else perf.DEFAULT_HISTORY,
    )


# ---------------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed k-dominating sets and MST (Kutten & Peleg, "
            "PODC 1995) on a CONGEST simulator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="edge-list file (u v [weight] lines)")
        p.add_argument("--generate", help="graph spec, e.g. grid:12x12")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-v", "--verbose", action="store_true")

    p_info = sub.add_parser("info", help="graph stats + leader election")
    common(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_kdom = sub.add_parser("kdom", help="FastDOM_G k-dominating set")
    common(p_kdom)
    p_kdom.add_argument("--k", type=int, required=True)
    p_kdom.set_defaults(fn=cmd_kdom)

    p_part = sub.add_parser("partition", help="fast DOM_Partition on a tree")
    common(p_part)
    p_part.add_argument("--k", type=int, required=True)
    p_part.set_defaults(fn=cmd_partition)

    p_mst = sub.add_parser("mst", help="distributed MST")
    common(p_mst)
    p_mst.add_argument(
        "--algorithm", choices=("fast", "ghs", "pipeline"), default="fast"
    )
    p_mst.set_defaults(fn=cmd_mst)

    p_faults = sub.add_parser(
        "faults", help="run a workload under seeded fault injection"
    )
    common(p_faults)
    p_faults.add_argument(
        "--workload", choices=("bfs", "flood", "kdom"), default="bfs"
    )
    p_faults.add_argument("--k", type=int, default=2,
                          help="k for the kdom workload")
    p_faults.add_argument("--drop", type=float, default=0.0,
                          help="per-message drop probability")
    p_faults.add_argument("--duplicate", type=float, default=0.0,
                          help="per-message duplication probability")
    p_faults.add_argument("--delay", type=float, default=0.0,
                          help="per-message delay probability")
    p_faults.add_argument("--max-delay", type=int, default=3,
                          help="maximum delay in rounds")
    p_faults.add_argument("--crash", action="append", metavar="NODE@ROUND",
                          help="crash-stop NODE at ROUND (repeatable)")
    p_faults.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the fault adversary")
    p_faults.add_argument("--reliable", action="store_true",
                          help="wrap the workload in ack/retransmit channels")
    p_faults.add_argument("--timeout", type=int, default=4,
                          help="reliable-channel retransmit timeout (rounds)")
    p_faults.add_argument("--retries", type=int, default=8,
                          help="reliable-channel retransmissions per frame")
    p_faults.add_argument("--max-rounds", type=int, default=2000)
    p_faults.set_defaults(fn=cmd_faults)

    p_trace = sub.add_parser(
        "trace",
        help="run an algorithm with observability on; write a JSONL trace",
    )
    common(p_trace)
    p_trace.add_argument(
        "--algo",
        choices=("bfs", "flood", "kdom", "kdom-tree", "fast-mst"),
        default="bfs",
    )
    p_trace.add_argument("--k", type=int, default=2,
                         help="k for the kdom workloads")
    p_trace.add_argument("--out", default="trace.jsonl",
                         help="trace output path (JSONL)")
    p_trace.add_argument("--width", type=int, default=60,
                         help="view width in columns")
    p_trace.add_argument("--channels", type=int, default=12,
                         help="rows in the congestion heatmap")
    p_trace.add_argument("--drop", type=float, default=0.0,
                         help="per-message drop probability (bfs/flood)")
    p_trace.add_argument("--duplicate", type=float, default=0.0,
                         help="per-message duplication probability")
    p_trace.add_argument("--delay", type=float, default=0.0,
                         help="per-message delay probability")
    p_trace.add_argument("--max-delay", type=int, default=3,
                         help="maximum delay in rounds")
    p_trace.add_argument("--crash", action="append", metavar="NODE@ROUND",
                         help="crash-stop NODE at ROUND (repeatable)")
    p_trace.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the fault adversary")
    p_trace.add_argument("--max-rounds", type=int, default=2000)
    p_trace.set_defaults(fn=cmd_trace)

    p_report = sub.add_parser(
        "report", help="validate and summarize a saved JSONL trace"
    )
    p_report.add_argument("trace", nargs="?", default=None,
                          help="trace file written by `repro trace`")
    p_report.add_argument("--width", type=int, default=60,
                          help="view width in columns")
    p_report.add_argument("--channels", type=int, default=12,
                          help="rows in the congestion heatmap")
    p_report.add_argument("--json", action="store_true",
                          help="machine-readable summary (repro-report/1) "
                               "instead of the ASCII views")
    p_report.add_argument("--bench", action="store_true",
                          help="render the perf trajectory from the "
                               "recorded BENCH history instead of a trace")
    p_report.add_argument("--history", default=None, metavar="PATH",
                          help="BENCH history file for --bench "
                               "(default: BENCH_history.jsonl)")
    p_report.add_argument("--warehouse", default=None, metavar="DB",
                          help="with --bench: also ingest the history "
                               "into this warehouse sqlite file so perf "
                               "trajectories are queryable (repro query "
                               "--bench)")
    p_report.set_defaults(fn=cmd_report)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (spec x seed x k) grid, sharded across workers",
    )
    p_sweep.add_argument("--workload", default="kdom", metavar="NAME",
                         help="registered workload name (built-ins: kdom, "
                              "partition, mst; benchmarks add more via "
                              "--import)")
    p_sweep.add_argument("--import", dest="imports", action="append",
                         metavar="MODULE",
                         help="import MODULE first so its "
                              "@register_workload workloads are available "
                              "(repeatable)")
    p_sweep.add_argument("--spec", action="append", metavar="SPEC",
                         help="graph spec, e.g. tree:n=64 (repeatable)")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list of seeds, e.g. 0,1,2")
    p_sweep.add_argument("--ks", default="2",
                         help="comma list of k values, e.g. 2,4")
    p_sweep.add_argument("--out", default=None,
                         help="JSONL result store (checkpoint/resume)")
    p_sweep.add_argument("--backend", choices=("inline", "process"),
                         default="process",
                         help="where cells execute (default: process)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: CPU count)")
    p_sweep.add_argument("--no-resume", action="store_true",
                         help="overwrite an existing store instead of "
                              "skipping its finished cells")
    p_sweep.add_argument("--max-cells", type=int, default=None,
                         help="stop after N pending cells (interrupt "
                              "simulation; resume later; exits 3 while "
                              "cells remain)")
    p_sweep.add_argument("--shard", default=None, metavar="I/N",
                         help="run only every N-th grid cell starting at I "
                              "(multi-host sweeps; combine the stores with "
                              "`repro merge-stores`)")
    p_sweep.add_argument("--verify", action="store_true",
                         help="per-cell correctness checks (radius, MST "
                              "exactness)")
    p_sweep.add_argument("--fast", action="store_true",
                         help="built-in CI-sized 8-cell grid")
    p_sweep.add_argument("--deadline-s", type=float, default=None,
                         help="per-cell deadline in seconds (process "
                              "backend): arms the hung-worker watchdog")
    p_sweep.add_argument("--max-attempts", type=int, default=None,
                         help="retries before a failing cell is quarantined "
                              "as an error row (default 3)")
    p_sweep.add_argument("--retry-quarantined", action="store_true",
                         help="on resume, re-run previously quarantined "
                              "cells instead of keeping their error rows")
    p_sweep.add_argument("--no-telemetry", action="store_true",
                         help="disable fabric telemetry (metrics registry, "
                              "spans, store summary, status heartbeats)")
    p_sweep.add_argument("--status", default=None, metavar="PATH",
                         help="live status sidecar path (default: "
                              "<out>.status.json when --out is given)")
    p_sweep.add_argument("--profile-workers", nargs="?", const="",
                         default=None, metavar="DIR",
                         help="cProfile every cell; dump per-worker .pstats "
                              "under DIR (default <out>.profiles) and print "
                              "the aggregated hot-function table")
    p_sweep.add_argument("-v", "--verbose", action="store_true",
                         help="print one line per finished cell")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_status = sub.add_parser(
        "status",
        help="render a sweep's live status sidecar (or, with --final, "
             "the deterministic summary inside a finished store)",
    )
    p_status.add_argument("store", help="sweep store path (or its "
                                        "*.status.json sidecar directly)")
    p_status.add_argument("--final", action="store_true",
                          help="read the store itself and render its "
                               "deterministic telemetry summary")
    p_status.add_argument("--watch", action="store_true",
                          help="re-render until the sweep finishes (^C "
                               "to stop)")
    p_status.add_argument("--interval", type=float, default=1.0,
                          help="refresh interval for --watch (seconds)")
    p_status.set_defaults(fn=cmd_status)

    p_serve = sub.add_parser(
        "serve",
        help="kdom-as-a-service: a persistent HTTP/JSON query server "
             "over the sweep fabric (docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8673,
                         help="bind port; 0 picks an ephemeral port")
    p_serve.add_argument("--backend", choices=("inline", "process"),
                         default="process",
                         help="where query cells execute (default: "
                              "process — a persistent SharedPool)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: CPU count)")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="bounded LRU result-cache entries "
                              "(default: 1024)")
    p_serve.add_argument("--deadline-s", type=float, default=None,
                         help="per-cell deadline (process backend): a "
                              "hung query is quarantined and answered "
                              "with HTTP 503")
    p_serve.add_argument("--max-attempts", type=int, default=None,
                         help="retries before a failing cell is "
                              "quarantined (default 3)")
    p_serve.add_argument("--import", dest="imports", action="append",
                         metavar="MODULE",
                         help="import MODULE first so its "
                              "@register_workload workloads are servable "
                              "(repeatable)")
    p_serve.set_defaults(fn=cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="one-line status table over every *.status.json in a "
             "directory",
    )
    p_top.add_argument("--dir", default=".",
                       help="directory to scan (non-recursive)")
    p_top.add_argument("--watch", action="store_true",
                       help="re-render until every sweep finishes")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh interval for --watch (seconds)")
    p_top.set_defaults(fn=cmd_top)

    p_merge = sub.add_parser(
        "merge-stores",
        help="merge N complete shard sweep stores into the one-shot store",
    )
    p_merge.add_argument("stores", nargs="+", metavar="STORE",
                         help="the shard JSONL stores (all N of them)")
    p_merge.add_argument("--out", required=True,
                         help="merged store path (byte-identical to an "
                              "unsharded sweep of the same grid)")
    p_merge.add_argument("--allow-partial", action="store_true",
                         help="tolerate missing shards/cells: merge what "
                              "exists into a resumable checkpoint store and "
                              "write an explicit holes manifest (exit 3)")
    p_merge.add_argument("--holes", default=None, metavar="PATH",
                         help="holes manifest path for --allow-partial "
                              "(default: <out>.holes.json)")
    p_merge.set_defaults(fn=cmd_merge_stores)

    p_repair = sub.add_parser(
        "repair-store",
        help="salvage a corrupt sweep store (keep verifiable rows, drop "
             "the rest, list the cells to re-run)",
    )
    p_repair.add_argument("store", help="the damaged JSONL store")
    p_repair.add_argument("--out", default=None,
                          help="write the repaired store here instead of "
                               "repairing in place")
    p_repair.set_defaults(fn=cmd_repair_store)

    p_ingest = sub.add_parser(
        "ingest",
        help="load JSONL sweep stores into the sqlite results warehouse "
             "(idempotent; docs/warehouse.md)",
    )
    p_ingest.add_argument("stores", nargs="+", metavar="STORE",
                          help="finalized sweep stores (a *.verdict.json "
                               "sidecar next to a store is ingested too)")
    p_ingest.add_argument("--db", default="warehouse.sqlite",
                          help="warehouse sqlite file (default: "
                               "warehouse.sqlite; created on first use)")
    p_ingest.add_argument("--allow-partial", action="store_true",
                          help="ingest incomplete stores (missing cells "
                               "become lineage holes; exit 3)")
    p_ingest.set_defaults(fn=cmd_ingest)

    p_query = sub.add_parser(
        "query",
        help="cross-sweep aggregations over the warehouse (or raw "
             "stores) — byte-identical either way",
    )
    p_query.add_argument("--db", default=None, metavar="PATH",
                         help="warehouse sqlite file (default: "
                              "warehouse.sqlite unless --store is given)")
    p_query.add_argument("--store", action="append", metavar="STORE",
                         help="answer from raw JSONL store(s) instead of "
                              "the warehouse (repeatable; the byte-identity "
                              "reference path)")
    p_query.add_argument("--metric", default=None, metavar="NAME",
                         help="numeric result field to aggregate "
                              "(dominators, rounds, clusters, messages, "
                              "words, ...)")
    p_query.add_argument("--where", action="append", metavar="FIELD=V[,V]",
                         help="equality filter on workload/spec/family/"
                              "seed/k (repeatable; comma = any-of)")
    p_query.add_argument("--group-by", default=None, metavar="F1[,F2]",
                         help="group fields, e.g. family,k")
    p_query.add_argument("--agg", default=None, metavar="A1[,A2]",
                         help="aggregations: count,min,max,sum,mean,pNN "
                              "(default: count,min,max,mean,p50,p90)")
    p_query.add_argument("--bench", action="store_true",
                         help="query perf-history samples (fields "
                              "workload/mode, metric best_seconds) from "
                              "--db or --history")
    p_query.add_argument("--history", default=None, metavar="PATH",
                         help="BENCH history file for --bench without a "
                              "warehouse (default: BENCH_history.jsonl)")
    p_query.add_argument("--json", action="store_true",
                         help="print the repro-query/1 document instead "
                              "of the ASCII table")
    p_query.set_defaults(fn=cmd_query)

    p_portfolio = sub.add_parser(
        "portfolio",
        help="best-of-N run: fan seeds over the pool, reduce to the "
             "best attempt (deterministic verdict)",
    )
    p_portfolio.add_argument("--workload", default="kdom", metavar="NAME",
                             help="registered workload name (default kdom)")
    p_portfolio.add_argument("--spec", required=True, metavar="SPEC",
                             help="graph spec, e.g. random:n=64,p=0.1")
    p_portfolio.add_argument("--seeds", default="0,1,2,3",
                             help="comma list of attempt seeds")
    p_portfolio.add_argument("--k", type=int, default=2)
    p_portfolio.add_argument("--reduce", default="smallest",
                             choices=("smallest", "rounds", "messages"),
                             help="which attempt wins (all minimize)")
    p_portfolio.add_argument("--out", default=None,
                             help="attempt store path; the verdict lands "
                                  "in <out>.verdict.json beside it")
    p_portfolio.add_argument("--backend", choices=("inline", "process"),
                             default="process",
                             help="where attempts execute (default: "
                                  "process)")
    p_portfolio.add_argument("--workers", type=int, default=None,
                             help="process-pool size (default: CPU count)")
    p_portfolio.add_argument("--no-resume", action="store_true",
                             help="overwrite an existing attempt store")
    p_portfolio.add_argument("--deadline-s", type=float, default=None,
                             help="per-attempt deadline (process backend)")
    p_portfolio.add_argument("--max-attempts", type=int, default=None,
                             help="retries before an attempt is "
                                  "quarantined (default 3)")
    p_portfolio.add_argument("--json", action="store_true",
                             help="print the repro-portfolio/1 verdict "
                                  "document")
    p_portfolio.add_argument("-v", "--verbose", action="store_true",
                             help="print one line per finished attempt")
    p_portfolio.set_defaults(fn=cmd_portfolio)

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos drill: sweep under a seeded fault plan, repair, "
             "resume, verify vs the fault-free baseline",
    )
    p_chaos.add_argument("--workload", default="kdom", metavar="NAME",
                         help="registered workload name (default kdom)")
    p_chaos.add_argument("--spec", action="append", metavar="SPEC",
                         help="graph spec, e.g. tree:n=64 (repeatable)")
    p_chaos.add_argument("--seeds", default="0",
                         help="comma list of grid seeds")
    p_chaos.add_argument("--ks", default="2",
                         help="comma list of k values")
    p_chaos.add_argument("--fast", action="store_true",
                         help="built-in CI-sized 8-cell grid")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="chaos-plan seed (same seed, same faults, "
                              "same verdict)")
    p_chaos.add_argument("--out-dir", default="chaos-drill",
                         help="directory for the baseline and chaos stores")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker processes for the chaos sweep")
    p_chaos.add_argument("--deadline-s", type=float, default=5.0,
                         help="watchdog deadline for hung workers (s)")
    p_chaos.add_argument("--max-attempts", type=int, default=3,
                         help="retries before quarantine")
    p_chaos.add_argument("--kills", type=int, default=1,
                         help="worker kills to schedule")
    p_chaos.add_argument("--hangs", type=int, default=1,
                         help="worker hangs to schedule")
    p_chaos.add_argument("--slows", type=int, default=0,
                         help="slow tasks to schedule (below the deadline)")
    p_chaos.add_argument("--corrupts", type=int, default=1,
                         help="store-row corruptions to schedule")
    p_chaos.add_argument("--poisons", type=int, default=0,
                         help="poison tasks (kill on every attempt -> "
                              "quarantine; exit 3)")
    p_chaos.add_argument("-v", "--verbose", action="store_true",
                         help="print phase-by-phase progress")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_perf = sub.add_parser(
        "perf", help="engine perf smoke suite (writes BENCH_sim.json)"
    )
    p_perf.add_argument("--fast", action="store_true",
                        help="CI-sized workloads")
    p_perf.add_argument("--reps", type=int, default=3,
                        help="repetitions per workload (best is reported)")
    p_perf.add_argument("--output", default=None,
                        help="report path (default: BENCH_sim.json)")
    p_perf.add_argument("--baseline", default=None,
                        help="baseline JSON for the regression gate "
                             "(default: benchmarks/perf_baseline.json)")
    p_perf.add_argument("--gate-factor", type=float, default=None,
                        help="fail when a workload exceeds this multiple "
                             "of its baseline best (default 2.0)")
    p_perf.add_argument("--no-gate", action="store_true",
                        help="skip the baseline comparison")
    p_perf.add_argument("--profile", action="store_true",
                        help="cProfile the workloads instead of timing them")
    p_perf.add_argument("--obs", action="store_true",
                        help="also measure observability overhead "
                             "(no-subscriber gate at 5%% over baseline)")
    p_perf.add_argument("--workload", action="append", default=None,
                        metavar="NAME",
                        help="run only this workload (repeatable); the "
                             "dense-speedup and serve sections are "
                             "skipped when filtering")
    p_perf.add_argument("--compare", default=None, metavar="OLD.json",
                        help="after the run, print a per-workload "
                             "speedup table against a previous report")
    p_perf.add_argument("--telemetry", action="store_true",
                        help="also measure sweep telemetry overhead and "
                             "gate the telemetry-off configuration at "
                             "5%% over baseline")
    p_perf.add_argument("--no-history", action="store_true",
                        help="skip appending this run to the BENCH "
                             "history (BENCH_history.jsonl)")
    p_perf.set_defaults(fn=cmd_perf)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
