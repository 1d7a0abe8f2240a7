"""Performance smoke suite for the CONGEST simulation engine.

Times the repository's representative workloads — the BFS program on a
path and a grid, ``FastDOM_T`` on a random tree, ``Fast-MST`` end to
end, a kdom sweep through :mod:`repro.batch`, and the large-n dense
runs — and writes a machine-readable report (``BENCH_sim.json`` by
default).  Two sizes are provided: the full suite (the numbers quoted
in ``docs/performance.md``) and ``--fast``, a seconds-scale variant for
CI.  On interpreters without numpy the dense workloads are skipped
with a note, so the suite still runs end to end.

The gate is one rule over one table of ratios (:data:`RATIO_BOUNDS`).
Each ratio compares two CPU times taken in alternating pairs in the
same process, so the speed of the host cancels out and other
processes on a shared host do not count:

* ``obs.*`` — ``BFSTreeProgram`` on a ``Network``, observed by a
  :class:`~repro.obs.CountingSubscriber` ÷ bare.  The floor holds the
  no-subscriber overhead contract: a bare engine that pays for the
  event stream reads closer to 1.  The ceiling bounds what a subscriber
  costs.
* ``dense.*`` — reference ÷ dense on the same input, warm.  The floor
  catches a dense path that falls back to the reference route.
* ``telemetry.sweep_kdom`` — an inline kdom sweep with fabric
  telemetry on ÷ off.  The ceiling bounds what telemetry costs; the
  floor catches a sweep that runs slower with telemetry off than on.

Every bound lies outside the range of its ratio over recorded runs.
The table runs at fixed sizes whenever ``--workload`` does not filter.
Absolute slowdowns are not gated here: CI times the perfbench
workloads of a change against its merge-base on the same runner
(``scripts/perf_ab.py``).

Usage::

    python -m repro perf              # full suite + ratio gate -> BENCH_sim.json
    python -m repro perf --fast       # CI-sized workloads, same ratio gate
    python -m repro perf --workload fastdom_dense --reps 1  # one workload
    python -m repro perf --compare OLD.json   # per-workload speedup table
    python -m repro perf --profile    # cProfile the hottest workload
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .core.fastdom_tree import fastdom_tree
from .graphs import (
    RootedTree,
    assign_unique_weights,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
)
from .mst import fast_mst
from .primitives.bfs import BFSTreeProgram, build_bfs_tree
from .sim import Network

SCHEMA = "repro-perf-smoke/3"

#: Schema tag on each BENCH history line (``BENCH_history.jsonl``).
HISTORY_SCHEMA = "repro-perf-history/1"

#: Default report location (repository root when run from a checkout).
DEFAULT_OUTPUT = "BENCH_sim.json"

#: Default perf-trajectory history (one JSONL line appended per run;
#: rendered by ``repro report --bench``).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: ratio name -> (floor, ceiling); ``None`` leaves that side open.  A
#: ratio outside its band fails the run.  Each band lies outside the
#: range of that ratio over 20 ``repro perf --fast`` runs on a 2-vCPU
#: host (docs/performance.md gives the ranges).  The dense floors keep
#: the 2x a fallback to the reference route cannot reach (it reads ~1x).
RATIO_BOUNDS: Dict[str, Tuple[Optional[float], Optional[float]]] = {
    "obs.bfs_path": (1.15, 2.5),
    "obs.bfs_grid": (1.15, 2.5),
    "dense.fastdom_tree": (2.0, None),
    "dense.bfs_grid": (2.0, None),
    "telemetry.sweep_kdom": (0.8, 1.25),
}


def _bfs(graph) -> Callable[[], Any]:
    """The BFS program on a ``Network`` directly, so the workload times
    the engine whichever route :func:`build_bfs_tree` takes."""
    return lambda: Network(graph).run(lambda ctx: BFSTreeProgram(ctx, 0))


def _bfs_path(n: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    return _bfs(path_graph(n)), {"n": n, "root": 0}


def _bfs_grid(side: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    return _bfs(grid_graph(side, side)), {"side": side, "root": 0}


def _fastdom_tree(n: int, k: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    tree = random_tree(n, seed=1)
    rooted = RootedTree.from_graph(tree, 0)
    parent = rooted.parent
    return lambda: fastdom_tree(tree, 0, parent, k), {"n": n, "k": k, "seed": 1}


def _fast_mst(n: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    graph = assign_unique_weights(
        random_connected_graph(n, 6.0 / n, seed=3), seed=4
    )
    return lambda: fast_mst(graph), {"n": n, "extra_edge_p": 6.0 / n, "seed": 3}


def _sweep_grid(n: int, cells: int):
    from .batch import SweepGrid

    seeds = tuple(range(cells // 2))
    return SweepGrid(
        workload="kdom", specs=(f"tree:n={n}",), seeds=seeds, ks=(2, 4)
    )


def _sweep_kdom(n: int, cells: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    """Sweep-throughput smoke: a kdom grid through repro.batch, inline.

    The inline backend is what a timing workload wants — no pool
    startup noise — and it shares every per-cell code path (cache,
    workload, metric merge) with the sharded backend.  ``cells`` is
    seeds × ks on one tree spec.
    """
    from .batch import run_sweep

    grid = _sweep_grid(n, cells)
    return (
        lambda: run_sweep(grid, store_path=None, backend="inline"),
        {"n": n, "cells": cells, "workload": "kdom"},
    )


def _fastdom_dense(n: int, k: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    tree = random_tree(n, seed=1)
    rooted = RootedTree.from_graph(tree, 0)
    parent = rooted.parent
    return (
        lambda: fastdom_tree(tree, 0, parent, k, backend="dense"),
        {"n": n, "k": k, "seed": 1},
    )


def _bfs_grid_dense(side: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    graph = grid_graph(side, side)
    return (
        lambda: build_bfs_tree(graph, 0, backend="dense"),
        {"side": side, "root": 0},
    )


#: name -> (builder, full-size kwargs, fast-size kwargs, backend).
#: Builders take the size parameters and return (callable, recorded
#: params); ``backend`` is recorded per workload in the report, and
#: ``"dense"`` workloads are skipped (with a note) when numpy is
#: unavailable.
WORKLOADS: Dict[
    str, Tuple[Callable[..., Any], Dict[str, Any], Dict[str, Any], str]
] = {
    "bfs_path": (_bfs_path, {"n": 2000}, {"n": 600}, "reference"),
    "bfs_grid": (_bfs_grid, {"side": 45}, {"side": 20}, "reference"),
    "fastdom_tree": (
        _fastdom_tree, {"n": 1500, "k": 4}, {"n": 400, "k": 4}, "reference"
    ),
    "fast_mst": (_fast_mst, {"n": 512}, {"n": 192}, "reference"),
    "sweep_kdom": (
        _sweep_kdom, {"n": 300, "cells": 8}, {"n": 80, "cells": 4}, "reference"
    ),
    # The large-n vectorized workloads: 10^5-node trees in the fast
    # suite (the CI large-n smoke), 10^6 nodes in the full suite.
    "fastdom_dense": (
        _fastdom_dense,
        {"n": 1_000_000, "k": 4},
        {"n": 100_000, "k": 4},
        "dense",
    ),
    "bfs_grid_dense": (
        _bfs_grid_dense, {"side": 1000}, {"side": 300}, "dense"
    ),
}


def select_workloads(
    names: Optional[List[str]] = None,
) -> Dict[str, Tuple[Callable[..., Any], Dict[str, Any], Dict[str, Any], str]]:
    """Resolve a ``--workload`` filter; ``None``/empty means everything."""
    if not names:
        return dict(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {', '.join(unknown)}; "
            f"available: {', '.join(WORKLOADS)}"
        )
    return {name: WORKLOADS[name] for name in WORKLOADS if name in names}


def time_workload(fn: Callable[[], Any], reps: int) -> List[float]:
    """Run ``fn`` ``reps`` times; return the wall-clock time of each run."""
    times = []
    for _ in range(reps):
        gc.collect()  # so no run pays for an earlier run's cyclic garbage
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def run_suite(
    fast: bool = False,
    reps: int = 3,
    echo: Callable[[str], None] = lambda line: None,
    only: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run every (selected) workload; return the report dictionary."""
    from .sim.dense import HAVE_NUMPY

    mode = "fast" if fast else "full"
    workloads: Dict[str, Any] = {}
    for name, (builder, full_kwargs, fast_kwargs, backend) in select_workloads(
        only
    ).items():
        if backend == "dense" and not HAVE_NUMPY:
            echo(f"{name:<14} skipped (numpy unavailable)")
            continue
        kwargs = fast_kwargs if fast else full_kwargs
        fn, params = builder(**kwargs)
        times = time_workload(fn, reps)
        best = min(times)
        workloads[name] = {
            "best_seconds": round(best, 6),
            "times": [round(t, 6) for t in times],
            "params": params,
            "backend": backend,
        }
        echo(f"{name:<14} best {best:.3f}s over {reps} reps  {params}")
    return {
        "schema": SCHEMA,
        "mode": mode,
        "reps": reps,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": workloads,
    }


# ---------------------------------------------------------------------------
# The ratio table
# ---------------------------------------------------------------------------

def _obs_ratio(name: str):
    from .obs import CountingSubscriber, observe

    builder, full_kwargs, _fast, _backend = WORKLOADS[name]
    bare, params = builder(**full_kwargs)

    def observed() -> None:
        with observe(CountingSubscriber()):
            bare()

    return observed, bare, params


def _dense_fastdom_ratio():
    n, k = 10_000, 4
    tree = random_tree(n, seed=1)
    parent = RootedTree.from_graph(tree, 0).parent
    return (
        lambda: fastdom_tree(tree, 0, parent, k),
        lambda: fastdom_tree(tree, 0, parent, k, backend="dense"),
        {"n": n, "k": k, "seed": 1},
    )


def _dense_bfs_ratio():
    side = 100
    graph = grid_graph(side, side)
    return (
        lambda: build_bfs_tree(graph, 0),
        lambda: build_bfs_tree(graph, 0, backend="dense"),
        {"side": side, "root": 0},
    )


def _telemetry_ratio():
    from .batch import run_sweep

    n, cells = 300, 8
    grid = _sweep_grid(n, cells)
    return (
        lambda: run_sweep(
            grid, store_path=None, backend="inline", telemetry=True
        ),
        lambda: run_sweep(
            grid, store_path=None, backend="inline", telemetry=False
        ),
        {"n": n, "cells": cells, "workload": "kdom"},
    )


#: Timed pairs per ratio.
RATIO_PAIRS = 7

#: ratio name -> (what it divides, builder returning (numerator,
#: denominator, params)).  Dense ratios need numpy.
RATIOS: Dict[str, Tuple[str, Callable[[], Any]]] = {
    "obs.bfs_path": ("observed / bare", lambda: _obs_ratio("bfs_path")),
    "obs.bfs_grid": ("observed / bare", lambda: _obs_ratio("bfs_grid")),
    "dense.fastdom_tree": ("reference / dense", _dense_fastdom_ratio),
    "dense.bfs_grid": ("reference / dense", _dense_bfs_ratio),
    "telemetry.sweep_kdom": ("telemetry on / off", _telemetry_ratio),
}


def cpu_seconds(fn: Callable[[], Any]) -> float:
    """CPU time of one call of ``fn`` in this process, after a full
    ``gc.collect()``.  Unlike wall time it does not count the time other
    processes hold the CPU, which dominates the noise on a shared host."""
    gc.collect()
    start = time.process_time()
    fn()
    return time.process_time() - start


def measure_ratios(
    echo: Callable[[str], None] = lambda line: None,
) -> Dict[str, Any]:
    """Time both sides of every ratio; return the ``"ratios"`` section.

    Each side first runs once untimed, so lazy imports and caches (the
    dense CSR view among them) are warm.  Then :data:`RATIO_PAIRS`
    pairs run, one call of each side, and the ratio is the median over
    pairs of numerator ÷ denominator CPU time.
    """
    from .sim.dense import HAVE_NUMPY

    section: Dict[str, Any] = {}
    for name, (divides, build) in RATIOS.items():
        if name.startswith("dense.") and not HAVE_NUMPY:
            echo(f"{name:<20} skipped (numpy unavailable)")
            continue
        numerator, denominator, params = build()
        numerator()
        denominator()
        pairs = [
            (cpu_seconds(numerator), cpu_seconds(denominator))
            for _ in range(RATIO_PAIRS)
        ]
        ratio = statistics.median(top / bottom for top, bottom in pairs)
        section[name] = {
            "ratio": round(ratio, 3),
            "divides": divides,
            "pairs": [[round(top, 6), round(bottom, 6)] for top, bottom in pairs],
            "params": params,
        }
        echo(f"{name:<20} {divides} = {ratio:.2f}x  {params}")
    return section


def check_ratios(report: Dict[str, Any]) -> List[str]:
    """The gate: every measured ratio must lie inside its
    :data:`RATIO_BOUNDS` band.  Returns one line per ratio outside it."""
    failures = []
    for name, entry in report.get("ratios", {}).items():
        floor, ceiling = RATIO_BOUNDS[name]
        ratio = entry["ratio"]
        if floor is not None and ratio < floor:
            failures.append(f"{name}: {ratio:.2f}x below its floor {floor:.2f}x")
        if ceiling is not None and ratio > ceiling:
            failures.append(
                f"{name}: {ratio:.2f}x above its ceiling {ceiling:.2f}x"
            )
    return failures


def compare_reports(
    old: Dict[str, Any], new: Dict[str, Any]
) -> List[str]:
    """Per-workload speedup table between two reports (``--compare``).

    Returns formatted lines; workloads present in only one report are
    listed as such rather than dropped, so renames are visible.
    """
    old_workloads = old.get("workloads", {})
    new_workloads = new.get("workloads", {})
    lines = [
        f"{'workload':<16} {'old':>9} {'new':>9} {'speedup':>8}",
    ]
    if old.get("mode") != new.get("mode"):
        lines.insert(
            0,
            f"note: comparing mode={old.get('mode')!r} against "
            f"mode={new.get('mode')!r}; sizes differ",
        )
    for name in sorted(set(old_workloads) | set(new_workloads)):
        old_best = old_workloads.get(name, {}).get("best_seconds")
        new_best = new_workloads.get(name, {}).get("best_seconds")
        if old_best is None:
            lines.append(f"{name:<16} {'-':>9} {new_best:>8.3f}s {'new':>8}")
        elif new_best is None:
            lines.append(f"{name:<16} {old_best:>8.3f}s {'-':>9} {'gone':>8}")
        else:
            ratio = old_best / new_best if new_best > 0 else float("inf")
            lines.append(
                f"{name:<16} {old_best:>8.3f}s {new_best:>8.3f}s "
                f"{ratio:>7.2f}x"
            )
    return lines


def history_entry(
    report: Dict[str, Any], recorded_unix: Optional[float] = None
) -> Dict[str, Any]:
    """One compact history entry for a perf report.

    The single definition of the ``repro-perf-history/1`` shape —
    :func:`append_history` writes it, the warehouse
    (``Warehouse.ingest_history``) decomposes it into queryable
    bench samples, and tests build synthetic histories from it.
    """
    return {
        "schema": HISTORY_SCHEMA,
        "mode": report.get("mode"),
        "recorded_unix": (
            round(time.time(), 3) if recorded_unix is None
            else recorded_unix
        ),
        "workloads": {
            name: result["best_seconds"]
            for name, result in report.get("workloads", {}).items()
        },
        "dense_speedup": (
            report.get("ratios", {}).get("dense.fastdom_tree", {}).get("ratio")
        ),
    }


def append_history(
    report: Dict[str, Any], path: str = DEFAULT_HISTORY
) -> Dict[str, Any]:
    """Append one compact JSONL line for this run to the BENCH history.

    The history is the longitudinal record behind ``repro report
    --bench``: every perf run adds a :func:`history_entry`.
    Wall-clock timestamps are fine here — the history is a log, not a
    store.
    """
    entry = history_entry(report)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return entry


def load_history(
    path: str = DEFAULT_HISTORY,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read the BENCH history: ``(entries, problems)``, file order.

    Unreadable or foreign-schema lines are skipped and reported as
    problems rather than raised — a half-written last line must not
    block the trajectory view.
    """
    entries: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return [], []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"line {number}: unparsable history line")
            continue
        if not isinstance(entry, dict) or entry.get("schema") != HISTORY_SCHEMA:
            problems.append(
                f"line {number}: not a {HISTORY_SCHEMA!r} entry"
            )
            continue
        entries.append(entry)
    return entries, problems


#: Trajectory intensity ramp: fastest run renders '.' and the slowest
#: '@', so a cooling-down workload reads as a right-to-left fade.
_TRAJECTORY_RAMP = ".:-=+*#%@"


def _trajectory_ramp(series: List[float]) -> str:
    lo, hi = min(series), max(series)
    if hi <= lo:
        return _TRAJECTORY_RAMP[0] * len(series)
    top = len(_TRAJECTORY_RAMP) - 1
    return "".join(
        _TRAJECTORY_RAMP[int((value - lo) / (hi - lo) * top)]
        for value in series
    )


def perf_trajectory(
    entries: List[Dict[str, Any]], source: Optional[str] = None
) -> List[str]:
    """Render the perf trajectory across recorded history entries.

    One table per mode (fast/full sizes are not comparable): first and
    latest best per workload, the first->latest trend, and a per-run
    intensity ramp ('.' fastest .. '@' slowest) so a regression sitting
    in the middle of the history is visible, not just endpoint drift.
    """
    head = f"perf trajectory: {len(entries)} recorded run(s)"
    if source:
        head += f" from {source}"
    lines = [head]
    by_mode: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        by_mode.setdefault(str(entry.get("mode", "?")), []).append(entry)
    for mode, group in by_mode.items():
        lines.append("")
        lines.append(f"mode {mode}: {len(group)} run(s)")
        names = sorted({
            name for entry in group for name in entry.get("workloads", {})
        })
        if not names:
            lines.append("  (no workloads recorded)")
            continue
        name_width = max(len("workload"), max(len(n) for n in names))
        lines.append(
            f"  {'workload':<{name_width}}  {'first':>9}  {'latest':>9}  "
            f"{'trend':>13}  runs ('.'=fastest '@'=slowest)"
        )
        for name in names:
            series = [
                entry["workloads"][name]
                for entry in group
                if name in entry.get("workloads", {})
            ]
            first, latest = series[0], series[-1]
            if latest <= 0:
                trend = "?"
            else:
                ratio = first / latest
                trend = (
                    f"{ratio:.2f}x faster"
                    if ratio >= 1
                    else f"{1 / ratio:.2f}x slower"
                )
            lines.append(
                f"  {name:<{name_width}}  {first:>8.3f}s  {latest:>8.3f}s  "
                f"{trend:>13}  {_trajectory_ramp(series)}"
            )
        speedups = [
            entry["dense_speedup"]
            for entry in group
            if entry.get("dense_speedup")
        ]
        if speedups:
            lines.append(
                f"  dense speedup: {speedups[0]:.1f}x first, "
                f"{speedups[-1]:.1f}x latest"
            )
    return lines


def profile_suite(
    fast: bool = False, top: int = 25, only: Optional[List[str]] = None
) -> str:
    """cProfile one pass over every workload; return the hot-frame table."""
    from .sim.dense import HAVE_NUMPY

    profiler = cProfile.Profile()
    for name, (builder, full_kwargs, fast_kwargs, backend) in select_workloads(
        only
    ).items():
        if backend == "dense" and not HAVE_NUMPY:
            continue
        fn, _params = builder(**(fast_kwargs if fast else full_kwargs))
        profiler.enable()
        fn()
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def main(
    fast: bool = False,
    reps: int = 3,
    output: str = DEFAULT_OUTPUT,
    profile: bool = False,
    workload: Optional[List[str]] = None,
    compare: Optional[str] = None,
    history: Optional[str] = DEFAULT_HISTORY,
) -> int:
    """Run the suite and the ratio table, write the report, apply the
    ratio gate.

    ``workload`` restricts the suite to the named workloads; the ratio
    table, and so the gate, is then skipped.  ``compare`` prints a
    per-workload speedup table against a previously written report
    after the run; ``history`` appends the run to the BENCH history
    (``None`` skips).
    """
    try:
        select_workloads(workload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if profile:
        print(profile_suite(fast=fast, only=workload))
        return 0
    report = run_suite(fast=fast, reps=reps, echo=print, only=workload)
    if not workload:
        report["ratios"] = measure_ratios(echo=print)
    write_report(report, output)
    print(f"wrote {output}")
    if history:
        append_history(report, history)
        print(f"appended history -> {history}")
    if compare is not None:
        old = load_report(compare)
        if old is None:
            print(f"no report at {compare}; comparison skipped")
        else:
            for line in compare_reports(old, report):
                print(line)
    failures = check_ratios(report)
    if failures:
        for failure in failures:
            print(f"REGRESSION  {failure}", file=sys.stderr)
        return 1
    if "ratios" in report:
        print(f"ratio gate passed ({len(report['ratios'])} ratios in bounds)")
    return 0
