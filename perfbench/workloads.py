"""The benchmark's three workloads: ``sweep``, ``serve`` and ``dense``.

Each ``run_*`` function takes a :class:`Pass` (seed, run length,
optional span recorder) and returns a :class:`Outcome`.  Inputs come
only from the seed; how much work a run does comes only from the seed
and ``--seconds`` (through the per-workload rate constants below), so
runs with the same arguments do exactly the same work and must produce
exactly the same totals.  Output checks run after the timed region.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import tracing
from .hostspeed import HostSpeed, scaled_median
from .stats import samples_needed

_now = time.perf_counter

#: Pool workers and serve connections: at most two, so the numbers
#: measure the program rather than the host scheduler.
PARALLELISM = max(1, min(2, os.cpu_count() or 1))
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 7

# -- sweep ------------------------------------------------------------------
SWEEP_KDOM_SPECS = ("tree:n=80", "random:n=80,p=0.06", "grid:8x10")
SWEEP_MST_SPECS = ("random:n=80,p=0.06",)
SWEEP_KS = (2, 4, 8)
SWEEP_SEEDS_PER_ROUND = 4
#: One round (a kdom grid and an mst grid over 4 graph seeds, 48 cells)
#: takes ~1 s on two workers; this many rounds per requested second
#: keeps a 20 s run at 1008 cells, enough for a p99 with 10 beyond.
SWEEP_ROUNDS_PER_SECOND = 1.05
SWEEP_VERIFY_SAMPLE = 12

# -- serve ------------------------------------------------------------------
SERVE_TREE_SPECS = ("tree:n=16", "tree:n=24", "tree:n=32")
SERVE_RANDOM_SPECS = ("random:n=16,p=0.2", "random:n=24,p=0.15")
SERVE_WORKLOAD_SPECS = (
    ("kdom", SERVE_TREE_SPECS + SERVE_RANDOM_SPECS),
    ("partition", SERVE_TREE_SPECS),
    ("mst", SERVE_TREE_SPECS + SERVE_RANDOM_SPECS),
)
SERVE_SEEDS = 64
SERVE_KS = (2, 3, 4)
#: The serve_qps cell of BENCH_sim.json; pinned as the hottest key.
SERVE_BENCH_CELL = ("kdom", "tree:n=16", 0, 2)
#: Zipf exponent of key popularity over the 2496-cell universe: ~3/4 of
#: queries hit, and a run touches more distinct cells than the server's
#: default 1024-entry result cache holds.
SERVE_ZIPF = 1.0
#: Three quarters of the closed loop's rate on two vCPUs (~400 q/s): the
#: serve checks then fit a run in about twice its ``--seconds``.
SERVE_QUERIES_PER_SECOND = 300
SERVE_VERIFY_SAMPLE = 12
SERVE_WARMUP = tuple(("kdom", "tree:n=16", SERVE_SEEDS + i, 2) for i in range(120))
#: Queries are sent in windows of this many, a host-speed probe between
#: windows.
SERVE_RATE_WINDOW = 250

# -- dense ------------------------------------------------------------------
DENSE_N = 100_000
DENSE_KS = (2, 4, 8)
#: Three dense solves of one 10^5-node tree take ~2.8 s; with its
#: generation and checks a tree takes ~4.5 s of a run.
DENSE_TREES_PER_SECOND = 1 / 2.9


@dataclass
class Pass:
    """One pass of a workload over the inputs of one seed."""

    root: str
    seed: int
    seconds: int
    state_dir: str
    recorder: Optional[tracing.Recorder] = None
    #: Repeat set-up and report the median (off in the
    #: reference pass of a traced run, which only needs its wall time).
    measure_setup: bool = True
    check: bool = True

    def tmp_dir(self, name: str) -> str:
        path = os.path.join(self.state_dir, "tmp", f"{name}-{os.getpid()}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def env(self) -> Dict[str, str]:
        src = os.path.join(self.root, "src")
        current = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + current if current else ""))


@dataclass
class Outcome:
    """What a pass measured and checked.  ``throughput``,
    ``latencies_s`` and ``setup_s`` are at the reference host speed
    (see :mod:`perfbench.hostspeed`); ``wall_s`` is unscaled."""

    ops: int
    wall_s: float
    throughput: float
    latencies_s: List[float]
    setup_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    totals: Dict[str, Any]
    notes: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Host-speed probe times (seconds) taken between the timed slices.
    probes: List[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Process helpers
# ---------------------------------------------------------------------------
def vm_hwm_kb(pid: Any = "self") -> int:
    """A process's peak resident set (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_of(pid: int) -> List[int]:
    """Pids whose parent is ``pid``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.append(int(name))
    return found


def import_seconds(run: Pass, modules: Sequence[str]) -> float:
    """Median, over fresh interpreters, of importing ``modules``, at the
    reference host speed."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {', '.join(modules)}; print(time.perf_counter() - t)"
    )

    def measure() -> float:
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=run.root, env=run.env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(out.stdout.split()[-1])

    return scaled_median(measure, SETUP_REPEATS)


def _noop(value: int) -> int:
    return value


class _Gaps:
    """``echo`` callback for ``run_sweep``: for each checkpointed row,
    the time since the row ``PARALLELISM`` rows earlier (or since the
    sweep began) — about one cell's time on one worker, and less
    sensitive than the plain gap to how the workers' finishes
    interleave."""

    def __init__(self) -> None:
        self.started = _now()
        self.stamps: List[float] = [self.started]
        self.gaps: List[float] = []

    def __call__(self, _line: str) -> None:
        now = _now()
        self.gaps.append(now - self.stamps[max(0, len(self.stamps) - PARALLELISM)])
        self.stamps.append(now)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def sweep_grids(seed: int, seconds: int) -> List[Tuple[Any, Any]]:
    """The (kdom grid, mst grid) rounds of one run, an untimed warm-up
    round first; fresh graph seeds per round so every round generates
    its graphs."""
    from repro.batch.sweep import SweepGrid

    rounds = 1 + max(1, math.ceil(seconds * SWEEP_ROUNDS_PER_SECOND))
    graph_seeds = random.Random(seed).sample(
        range(10**6), rounds * SWEEP_SEEDS_PER_ROUND
    )
    grids = []
    for r in range(rounds):
        seeds = tuple(graph_seeds[r * SWEEP_SEEDS_PER_ROUND:(r + 1) * SWEEP_SEEDS_PER_ROUND])
        grids.append((
            SweepGrid("kdom", SWEEP_KDOM_SPECS, seeds, SWEEP_KS),
            SweepGrid("mst", SWEEP_MST_SPECS, seeds, SWEEP_KS),
        ))
    return grids


def run_sweep_workload(run: Pass) -> Outcome:
    # ``repro sweep`` imports the CLI, which imports every workload's
    # algorithms, before the pool forks; workers inherit them.
    import_s = import_seconds(run, ["repro.cli"]) if run.measure_setup else 0.0
    import repro.cli  # noqa: F401
    from repro.batch.pool import SharedPool
    from repro.batch.store import canonical_line
    from repro.batch.sweep import run_sweep

    warmup, *grids = sweep_grids(run.seed, run.seconds)
    tmp = run.tmp_dir("sweep")

    def pool_start() -> float:
        started = _now()
        with SharedPool(PARALLELISM) as pool:
            pool.map(_noop, range(PARALLELISM))
            return _now() - started

    pool_s = scaled_median(pool_start, SETUP_REPEATS) if run.measure_setup else 0.0
    with SharedPool(PARALLELISM) as pool:
        pool.map(_noop, range(PARALLELISM))
        # An untimed round first: this host's CPUs run slower for the
        # first second or so of load after idling.
        for grid in warmup:
            run_sweep(grid, store_path=os.path.join(tmp, f"warmup-{grid.workload}.jsonl"),
                      backend="process", workers=PARALLELISM, resume=False)
        gaps: List[float] = []
        results = []
        rates = []
        wall = 0.0
        speed = HostSpeed()
        measured_from = _now()
        for index, pair in enumerate(grids):
            started = _now()
            round_gaps = []
            for grid in pair:
                store = os.path.join(tmp, f"{index:03d}-{grid.workload}.jsonl")
                echo = _Gaps()
                summary = run_sweep(
                    grid, store_path=store, backend="process",
                    workers=PARALLELISM, resume=False, echo=echo,
                )
                round_gaps.extend(echo.gaps)
                results.append((store, summary))
            elapsed = _now() - started
            scale = speed.mark()
            wall += elapsed
            rates.append(sum(len(grid.cells()) for grid in pair) / (elapsed * scale))
            gaps.extend(gap * scale for gap in round_gaps)
        if run.recorder is not None:
            run.recorder.enabled = False
        rss_kb = vm_hwm_kb() + sum(vm_hwm_kb(pid) for pid in pool.worker_pids())

    rows = [row for _store, summary in results for row in summary.rows]
    failed_keys = set()
    for store, summary in results if run.check else ():
        with open(store) as handle:
            lines = handle.read().splitlines()
        if lines[1:] != [canonical_line(row) for row in summary.rows]:
            failed_keys.update(_key(row) for row in summary.rows)
    for row in rows:
        result = row.get("result")
        if result is None or (
            row["cell"]["workload"] == "kdom" and result["dominators"] > result["bound"]
        ) or (
            row["cell"]["workload"] == "mst" and result["mst_edges"] != result["n"] - 1
        ):
            failed_keys.add(_key(row))
    if run.check:
        sample = random.Random(run.seed + 1).sample(rows, min(SWEEP_VERIFY_SAMPLE, len(rows)))
        failed_keys.update(_key(row) for row in sample if not _verified(row))
    shutil.rmtree(tmp, ignore_errors=True)

    layer = {}
    if run.recorder is not None:
        layer = tracing.attribute_sweep(
            _table(run.recorder.spans, os.getpid()).since(measured_from),
            tracing.load_worker_table(run.recorder.trace_dir).since(measured_from),
            tracing.telemetry_sums(s.telemetry for _p, s in results),
            PARALLELISM, wall,
        )
    return Outcome(
        ops=len(rows),
        wall_s=wall,
        throughput=statistics.median(rates),
        latencies_s=gaps,
        setup_s=import_s + pool_s,
        peak_rss_mb=rss_kb / 1024.0,
        attempted=len(rows),
        failed=len(failed_keys),
        totals={
            "cells": len(rows),
            "rounds": sum(r["result"]["rounds"] for r in rows if "result" in r),
            "messages": sum(r["result"]["metrics"]["messages"] for r in rows if "result" in r),
            "dominators": sum(r["result"].get("dominators", 0) for r in rows if "result" in r),
            "mst_weight": sum(r["result"].get("mst_weight", 0) for r in rows if "result" in r),
        },
        notes=[
            f"cells_per_s = {statistics.median(rates):.2f}, the median over {len(grids)} "
            f"rounds of 2 sweeps ({len(rows) / wall:.2f} unscaled over the whole run; "
            f"{PARALLELISM} workers, telemetry on)",
            f"latency = time since the checkpointed row {PARALLELISM} rows earlier "
            f"({len(gaps)} samples)",
            f"setup_s = imports {import_s:.3f} s + pool start {pool_s:.3f} s "
            f"(medians of {SETUP_REPEATS})",
        ],
        layer=layer,
        probes=speed.probes,
    )


def _key(row: Dict[str, Any]) -> str:
    from repro.batch.store import cell_key

    return cell_key(row["cell"])


def _verified(row: Dict[str, Any]) -> bool:
    """Re-run a stored cell with ``verify=True``: its checks pass and
    every other field of its row is unchanged."""
    from repro.batch.sweep import SweepCell, run_cell

    cell = row["cell"]
    checked = run_cell(SweepCell(cell["workload"], cell["spec"], cell["seed"], cell["k"], verify=True))
    result = dict(checked["result"])
    ok = result.pop("ok", False)
    result.pop("radius", None)
    result.pop("max_radius", None)
    return ok is True and result == row["result"]


def _table(spans: List[list], pid: int) -> tracing.SpanTable:
    table = tracing.SpanTable()
    table.add(spans, pid)
    return table


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def serve_schedule(seed: int, seconds: int) -> List[Tuple[str, str, int, int]]:
    """The seeded query sequence: Zipf-skewed over a shuffled universe
    of (workload, spec, seed, k) cells, the BENCH_sim cell hottest."""
    universe = sorted(
        (workload, spec, graph_seed, k)
        for workload, specs in SERVE_WORKLOAD_SPECS
        for spec in specs
        for graph_seed in range(SERVE_SEEDS)
        for k in SERVE_KS
    )
    rng = random.Random(seed)
    rng.shuffle(universe)
    universe.remove(SERVE_BENCH_CELL)
    universe.insert(0, SERVE_BENCH_CELL)
    weights = itertools.accumulate(1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(universe)))
    count = max(samples_needed(0.99), round(seconds * SERVE_QUERIES_PER_SECOND))
    return rng.choices(universe, cum_weights=list(weights), k=count)


def _request(cell: Tuple[str, str, int, int]) -> bytes:
    workload, spec, seed, k = cell
    body = json.dumps({"workload": workload, "spec": spec, "seed": seed, "k": k}).encode()
    return (
        b"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


async def _response(reader: asyncio.StreamReader) -> Tuple[int, str, bytes]:
    status = int((await reader.readline()).split()[1])
    length, flavor = 0, ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "x-serve-cache":
            flavor = value.strip()
    return status, flavor, await reader.readexactly(length)


async def _closed_loop(
    port: int, requests: List[bytes], window: int = 0,
    between: Callable[[], None] = lambda: None,
) -> Tuple[list, List[float]]:
    """Send every request over ``PARALLELISM`` keep-alive connections,
    each waiting for its reply before sending the next, ``window``
    requests at a time (all at once when 0).  ``between()`` runs after
    each window, with no request in flight.  Returns the per-request
    results and each window's wall time."""
    results: List[Any] = [None] * len(requests)
    streams = [list(await asyncio.open_connection("127.0.0.1", port))
               for _ in range(PARALLELISM)]

    async def connection(stream: list, jobs: Iterator[Tuple[int, bytes]]) -> None:
        for index, request in jobs:
            started = _now()
            try:
                stream[1].write(request)
                await stream[1].drain()
                status, flavor, payload = await _response(stream[0])
            except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
                results[index] = (0, _now() - started, b"", "failed")
                stream[1].close()
                stream[:] = await asyncio.open_connection("127.0.0.1", port)
                continue
            results[index] = (status, _now() - started, payload, flavor)

    walls = []
    window = window or len(requests)
    try:
        for first in range(0, len(requests), window):
            jobs = iter(enumerate(requests[first:first + window], first))
            started = _now()
            await asyncio.gather(*(connection(stream, jobs) for stream in streams))
            walls.append(_now() - started)
            between()
    finally:
        for _reader, writer in streams:
            writer.close()
            await writer.wait_closed()
    return results, walls


def _get_json(port: int, path: str) -> Dict[str, Any]:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(response.read())
    finally:
        connection.close()


class _Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, run: Pass, log: str) -> None:
        if run.recorder is not None:
            entry = os.path.join(run.root, "perfbench", "serve_traced.py")
            command = [sys.executable, "-u", entry, run.recorder.trace_dir]
        else:
            command = [sys.executable, "-u", "-m", "repro", "serve"]
        command += ["--port", "0", "--workers", str(PARALLELISM)]
        started = _now()
        with open(log, "a") as errors:
            self.proc = subprocess.Popen(
                command, cwd=run.root, env=run.env(), stdout=subprocess.PIPE,
                stderr=errors, text=True,
            )
        try:
            ready, _w, _x = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start (see {log}): {line!r}")
            self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            while True:
                try:
                    _get_json(self.port, "/status")
                    break
                except ConnectionRefusedError:
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = _now() - started

    def peak_rss_kb(self) -> int:
        return sum(vm_hwm_kb(pid) for pid in [self.proc.pid] + children_of(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def expected_body(cell: Tuple[str, str, int, int]) -> bytes:
    """What the server must answer for ``cell``: the sweep row."""
    from repro.batch.store import canonical_line
    from repro.batch.sweep import SweepCell, run_cell

    return (canonical_line(run_cell(SweepCell(*cell))) + "\n").encode("utf-8")


def run_serve_workload(run: Pass) -> Outcome:
    schedule = serve_schedule(run.seed, run.seconds)
    requests = [_request(cell) for cell in schedule]
    tmp = run.tmp_dir("serve")
    log = os.path.join(tmp, "server.log")

    def spawn() -> float:
        server = _Server(run, log)
        server.stop()
        return server.setup_s

    setup_s = scaled_median(spawn, SETUP_REPEATS) if run.measure_setup else 0.0
    server = _Server(run, log)
    try:
        # Untimed warm-up queries, on cells outside the schedule's
        # universe: this host's CPUs run slower for the first second or
        # so of load after idling.
        asyncio.run(_closed_loop(server.port, [_request(cell) for cell in SERVE_WARMUP]))
        metrics_before = _get_json(server.port, "/metrics")
        warm_status = _get_json(server.port, "/status")
        speed = HostSpeed()
        measured_from = _now()
        results, walls = asyncio.run(
            _closed_loop(server.port, requests, SERVE_RATE_WINDOW, speed.mark)
        )
        status_doc = _get_json(server.port, "/status")
        metrics_doc = _get_json(server.port, "/metrics")
        rss_kb = server.peak_rss_kb()
    finally:
        server.stop()

    statuses: Dict[str, int] = {}
    bodies: Dict[Tuple[str, str, int, int], bytes] = {}
    failed = set()
    for index, (cell, (status, _latency, payload, _flavor)) in enumerate(zip(schedule, results)):
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        if status != 200:
            failed.add(index)
        elif bodies.setdefault(cell, payload) != payload:
            failed.add(index)
    distinct = sorted(bodies)
    if run.check:
        # In this process, not a pool: a spawn pool starts
        # multiprocessing's resource tracker, which outlives the run.
        with tracing.paused(run.recorder):
            expected = [expected_body(cell) for cell in distinct]
            sample = random.Random(run.seed + 1).sample(distinct, min(SERVE_VERIFY_SAMPLE, len(distinct)))
            verified = [_verified(json.loads(bodies[cell])) for cell in sample]
        wrong = {cell for cell, body in zip(distinct, expected) if bodies[cell] != body}
        wrong.update(cell for cell, ok in zip(sample, verified) if not ok)
        failed.update(i for i, cell in enumerate(schedule) if cell in wrong)
    rows = [json.loads(bodies[cell])["result"] for cell in distinct]
    latencies = [latency for _s, latency, _p, _f in results]
    scales = [speed.scale(index) for index in range(len(walls))]
    scaled = [latency * scales[index // SERVE_RATE_WINDOW] for index, latency in enumerate(latencies)]
    # Over the whole run, not a median over windows: the cache warms
    # through the schedule, so windows differ in how many misses they hold.
    qps = len(requests) / sum(seconds * scale for seconds, scale in zip(walls, scales))
    wall = sum(walls)
    flavors = {}
    for _s, _l, _p, flavor in results:
        flavors[flavor] = flavors.get(flavor, 0) + 1
    shutil.rmtree(tmp, ignore_errors=True)

    layer = {}
    if run.recorder is not None:
        server_table = tracing.SpanTable()
        for name in os.listdir(run.recorder.trace_dir):
            if name.startswith("server-"):
                with open(os.path.join(run.recorder.trace_dir, name)) as handle:
                    for line in handle:
                        batch = json.loads(line)
                        server_table.add(batch["spans"], batch["pid"])
        before = tracing.telemetry_sums([metrics_before])
        after = tracing.telemetry_sums([metrics_doc])
        layer = tracing.attribute_serve(
            server_table.since(measured_from),
            tracing.load_worker_table(run.recorder.trace_dir).since(measured_from),
            {name: after[name] - before[name] for name in after},
            sum(latencies), len(schedule),
            status_doc["cache"]["evictions"] - warm_status["cache"]["evictions"],
            PARALLELISM, wall,
        )
    return Outcome(
        ops=len(schedule),
        wall_s=wall,
        throughput=qps,
        latencies_s=scaled,
        setup_s=setup_s,
        peak_rss_mb=rss_kb / 1024.0,
        attempted=len(schedule),
        failed=len(failed),
        totals={
            "queries": len(schedule),
            "statuses": statuses,
            "distinct_cells": len(distinct),
            "rounds": sum(row["rounds"] for row in rows),
            "messages": sum(row.get("metrics", {}).get("messages", 0) for row in rows),
        },
        notes=[
            f"qps = {qps:.1f} over the whole run, each window of {SERVE_RATE_WINDOW} "
            f"queries scaled ({len(schedule) / wall:.1f} unscaled): closed loop, "
            f"{PARALLELISM} keep-alive connections, server --workers {PARALLELISM}",
            "cache outcomes " + ", ".join(f"{k}={v}" for k, v in sorted(flavors.items()))
            + f"; {len(distinct)} distinct cells, cache capacity "
            f"{status_doc['cache']['capacity']}, evictions {status_doc['cache']['evictions']}",
            f"setup_s = server spawn to first 200 (median of {SETUP_REPEATS})",
        ],
        layer=layer,
        probes=speed.probes,
    )


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------
def run_dense_workload(run: Pass) -> Outcome:
    import_s = (
        import_seconds(run, ["numpy", "repro.core", "repro.graphs", "repro.sim.dense"])
        if run.measure_setup else 0.0
    )
    from repro.core import fastdom_tree
    from repro.graphs import RootedTree, parse_graph_spec
    from repro.sim.dense import csr
    from repro.verify import domination_radius

    trees = max(1, round(run.seconds * DENSE_TREES_PER_SECOND))
    tree_seeds = random.Random(run.seed).sample(range(10**6), trees + 1)
    spec = f"tree:n={DENSE_N}"
    # An untimed solve first, on a tree of its own: a fresh process's
    # first solve also pays for growing its heap.
    with tracing.paused(run.recorder):
        warm = parse_graph_spec(spec, seed=tree_seeds.pop())
        root = min(warm.nodes)
        fastdom_tree(warm, root, RootedTree.from_graph(warm, root).parent,
                     DENSE_KS[0], backend="dense")
        del warm
    # The timed solves start with an empty provenance cache.
    csr.cache_clear()
    prepare, solve_s, tree_s, sizes, csr_bytes = [], [], [], [], 0
    rounds = messages = failed = 0
    rss_kb = 0
    # A tree's generation and rooting is one slice, each solve another.
    speed = HostSpeed(each_cpu=False)
    for tree_seed in tree_seeds:
        started = _now()
        tree = parse_graph_spec(spec, seed=tree_seed)
        root = min(tree.nodes)
        rooted = RootedTree.from_graph(tree, root)
        prepared = _now() - started
        prepare.append(prepared * speed.mark())
        solved, scaled = [], 0.0
        for k in DENSE_KS:
            with run.recorder.span(tracing.OP_SPAN) if run.recorder else nullcontext():
                started = _now()
                dominators, _partition, staged = fastdom_tree(
                    tree, root, rooted.parent, k, backend="dense"
                )
                seconds = _now() - started
            solve_s.append(seconds)
            scaled += seconds * speed.mark()
            solved.append((k, dominators, staged))
        tree_s.append(scaled)
        rss_kb = max(rss_kb, vm_hwm_kb())
        with tracing.paused(run.recorder):
            csr_bytes += tracing.nbytes(csr.csr_adjacency(tree))
            for k, dominators, staged in solved:
                sizes.append(len(dominators))
                rounds += staged.total_rounds
                messages += staged.total_messages
                if len(dominators) > max(1, DENSE_N // (k + 1)):
                    failed += 1
                elif run.check and domination_radius(tree, dominators) > k:
                    failed += 1
        del tree, rooted, solved

    layer = {}
    if run.recorder is not None:
        layer = tracing.attribute_dense(
            _table(run.recorder.spans, os.getpid()), len(solve_s), rounds, messages
        )
    solves = len(solve_s)
    rates = [DENSE_N * len(DENSE_KS) / seconds for seconds in tree_s]
    return Outcome(
        ops=DENSE_N * solves,
        wall_s=sum(solve_s),
        throughput=statistics.median(rates),
        # A latency sample is one tree's three solves, not one solve: the
        # tail of 27 single solves was their slowest, which one slow
        # second of the host decided.
        latencies_s=tree_s,
        setup_s=import_s + statistics.median(prepare),
        peak_rss_mb=rss_kb / 1024.0,
        attempted=solves,
        failed=failed,
        totals={"solves": solves, "dominators": sizes, "rounds": rounds, "messages": messages},
        notes=[
            f"nodes_per_s = {statistics.median(rates):.0f}, the median over {trees} tree(s) "
            f"of {DENSE_N} nodes, each solved at k in {list(DENSE_KS)} "
            f"({DENSE_N * solves / sum(solve_s):.0f} unscaled over the whole run)",
            f"latency = one tree solved at k in {list(DENSE_KS)}, {len(DENSE_KS)} "
            f"fastdom_tree(backend='dense') calls ({trees} samples)",
            f"setup_s = imports {import_s:.3f} s + tree generation and rooting "
            f"{statistics.median(prepare):.3f} s (median of {len(prepare)})",
            f"csr_bytes (computed) = {csr_bytes} over {trees} adjacencies, "
            f"beside peak_rss_mb = {rss_kb / 1024.0:.1f}",
        ],
        layer=layer,
        probes=speed.probes,
    )


WORKLOADS = {
    "sweep": run_sweep_workload,
    "serve": run_serve_workload,
    "dense": run_dense_workload,
}
