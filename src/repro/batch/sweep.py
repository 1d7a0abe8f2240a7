"""Sharded parameter sweeps over a (graph-spec × seed × k) grid.

The paper's experiments (EXPERIMENTS.md, E01–E16) are parameter
sweeps: the same deterministic workload at many ``(spec, seed, k)``
cells.  This module turns that shape into a first-class runner:

* a :class:`SweepGrid` enumerates cells in a fixed, documented order
  (spec-major, then seed, then k) — the canonical order of the result
  store and of metric merging;
* cells fan across worker processes (``backend="process"``) or run in
  this process (``"inline"``), behind the same function; an entered
  :class:`~repro.batch.pool.SharedPool` is reused instead of spawning
  a pool per sweep;
* each worker keeps one bounded :class:`~repro.batch.cache.GraphCache`,
  so the cells sharing a (spec, seed) pair regenerate nothing;
* results checkpoint into a :class:`~repro.batch.store.SweepStore`
  as they finish, and a resumed sweep executes only missing cells;
* ``shard=(i, n)`` restricts one invocation to every n-th cell of the
  canonical order — the multi-host protocol: run the same grid with
  ``--shard 0/N .. (N-1)/N`` on N machines, then
  :func:`~repro.batch.store.merge_stores` stitches the shard stores
  into the byte-identical one-shot store;
* per-cell metrics are merged with
  :meth:`~repro.sim.metrics.RunMetrics.merge` in grid order, so the
  summary is identical whatever backend or worker count ran the cells.

Workloads are looked up by name in :mod:`repro.batch.registry`; the
built-ins (``kdom``, ``partition``, ``mst``) are registered below, and
benchmarks register their own (e.g. ``bench-e16-faults``).  Every
workload must stay deterministic: a result row may contain nothing
that varies run to run (no timing, no pids), because completed stores
are compared byte for byte.
"""

from __future__ import annotations

import cProfile
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graphs import RootedTree
from ..obs.telemetry import (
    TELEMETRY_SCHEMA,
    MetricsRegistry,
    TelemetrySession,
    emit_phase_spans,
    span,
)
from ..sim.metrics import RunMetrics
from .cache import GraphCache, worker_graph_cache
from .pool import (
    PoolCrashError,
    SharedPool,
    imap_completion_order,
    resolve_workers,
)
from .registry import get_workload, register_workload
from .status import (
    PENDING_PREVIEW,
    SweepStatusWriter,
    fabric_tallies,
    status_path_for,
)
from .store import SCHEMA, SweepStore, StoreError, cell_key
from .telemetry import cell_snapshot, deterministic_part

#: Execution backends accepted by :func:`run_sweep`.
SWEEP_BACKENDS = ("inline", "process")


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a workload at (spec, seed, k)."""

    workload: str
    spec: str
    seed: int
    k: int
    verify: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "spec": self.spec,
            "seed": self.seed,
            "k": self.k,
        }

    @property
    def key(self) -> str:
        return cell_key(self.as_dict())


@dataclass(frozen=True)
class SweepGrid:
    """A (spec × seed × k) grid for one workload.

    ``verify`` adds the per-cell correctness checks (domination radius,
    MST exactness) — more expensive, still deterministic.
    """

    workload: str
    specs: Tuple[str, ...]
    seeds: Tuple[int, ...]
    ks: Tuple[int, ...]
    verify: bool = False

    def __post_init__(self) -> None:
        get_workload(self.workload)  # raises WorkloadError when unknown
        if not (self.specs and self.seeds and self.ks):
            raise ValueError("grid needs at least one spec, seed and k")

    def cells(self) -> List[SweepCell]:
        """Grid cells in canonical order: spec-major, then seed, then k."""
        return [
            SweepCell(self.workload, spec, seed, k, self.verify)
            for spec in self.specs
            for seed in self.seeds
            for k in self.ks
        ]

    def meta(self) -> Dict[str, Any]:
        """The store's meta line: schema plus the full grid definition."""
        return {
            "schema": SCHEMA,
            "workload": self.workload,
            "specs": list(self.specs),
            "seeds": list(self.seeds),
            "ks": list(self.ks),
            "verify": self.verify,
            "cells": len(self.specs) * len(self.seeds) * len(self.ks),
        }


#: Built-in workloads that reject a graph which is not a tree.
TREE_WORKLOADS = ("kdom-dense", "partition")


def fast_grid(workload: str = "kdom") -> SweepGrid:
    """The CI-sized grid behind ``repro sweep --fast`` (8 small cells).

    The workloads that take trees only get a random tree of the random
    graph's size in its place."""
    second = "tree:n=36" if workload in TREE_WORKLOADS else "random:n=36,p=0.12"
    return SweepGrid(
        workload=workload,
        specs=("tree:n=40", second),
        seeds=(0, 1),
        ks=(2, 3),
    )


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------
def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``"i/N"`` into a validated ``(i, n)`` shard selector."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like i/N (e.g. 0/4), got {text!r}"
        ) from None
    return validate_shard((index, count))


def validate_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    index, count = shard
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return index, count


def shard_cells(
    cells: List[SweepCell], shard: Optional[Tuple[int, int]]
) -> List[Tuple[int, SweepCell]]:
    """The (canonical-index, cell) pairs shard ``(i, n)`` is responsible
    for: every cell whose canonical-order index is ``i`` modulo ``n``.

    Round-robin over the canonical order (rather than contiguous
    blocks) so each shard gets a representative mix of specs and sizes
    — the grid is spec-major, and a contiguous split would hand one
    host all the big graphs.  Shards partition the grid exactly: over
    ``i = 0..n-1`` every cell appears in precisely one shard.
    """
    indexed = list(enumerate(cells))
    if shard is None:
        return indexed
    index, count = validate_shard(shard)
    return [(i, cell) for i, cell in indexed if i % count == index]


# ---------------------------------------------------------------------------
# Workloads (deterministic; rows must carry nothing run-varying)
# ---------------------------------------------------------------------------
@register_workload("kdom", weighted=True)
def _workload_kdom(graph, cell: SweepCell) -> Dict[str, Any]:
    """``FastDOM_G``: k-dominating set on a general graph (§4.5)."""
    from ..core import fastdom_graph
    from ..verify import domination_radius

    dominators, partition, staged = fastdom_graph(graph, cell.k)
    bound = max(1, graph.num_nodes // (cell.k + 1))
    result = {
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "dominators": len(dominators),
        "bound": bound,
        "clusters": partition.num_clusters,
        "rounds": staged.total_rounds,
        "breakdown": staged.breakdown(),
        "metrics": staged.combined.to_dict(per_round=False),
    }
    if cell.verify:
        result["radius"] = domination_radius(graph, dominators)
        result["ok"] = (
            len(dominators) <= bound and result["radius"] <= cell.k
        )
    return result


@register_workload("kdom-dense")
def _workload_kdom_dense(graph, cell: SweepCell) -> Dict[str, Any]:
    """``TreeKDom`` under the vectorized backend (``repro.sim.dense``):
    the exact per-tree DP as array rounds.  Tree specs only; inputs
    outside the dense contract fall back to the reference engine with
    identical results, so rows stay deterministic either way."""
    from ..core import tree_kdominating_set
    from ..verify import domination_radius

    root = min(graph.nodes, key=str)
    rooted = RootedTree.from_graph(graph, root)
    dominators, partition, staged = tree_kdominating_set(
        graph, root, rooted.parent, cell.k, backend="dense"
    )
    bound = max(1, graph.num_nodes // (cell.k + 1))
    result = {
        "n": graph.num_nodes,
        "dominators": len(dominators),
        "bound": bound,
        "clusters": partition.num_clusters,
        "rounds": staged.total_rounds,
        "breakdown": staged.breakdown(),
        "metrics": staged.combined.to_dict(per_round=False),
    }
    if cell.verify:
        result["radius"] = domination_radius(graph, dominators)
        result["ok"] = (
            len(dominators) <= bound and result["radius"] <= cell.k
        )
    return result


@register_workload("partition")
def _workload_partition(graph, cell: SweepCell) -> Dict[str, Any]:
    """Fast ``DOM_Partition`` on the BFS tree rooted at the min node."""
    from ..core import dom_partition

    root = min(graph.nodes, key=str)
    rooted = RootedTree.from_graph(graph, root)
    partition, staged = dom_partition(graph, root, rooted.parent, cell.k)
    sizes = sorted(cluster.size for cluster in partition.clusters)
    result = {
        "n": graph.num_nodes,
        "clusters": partition.num_clusters,
        "min_size": sizes[0],
        "max_size": sizes[-1],
        "rounds": staged.total_rounds,
        "breakdown": staged.breakdown(),
        "metrics": staged.combined.to_dict(per_round=False),
    }
    if cell.verify:
        max_radius = max(
            cluster.radius_in(graph) for cluster in partition.clusters
        )
        result["max_radius"] = max_radius
        result["ok"] = (
            sizes[0] >= cell.k + 1 and max_radius <= 5 * cell.k + 2
        )
    return result


@register_workload("mst", weighted=True)
def _workload_mst(graph, cell: SweepCell) -> Dict[str, Any]:
    """``Fast-MST`` end to end; the cell's k overrides sqrt(n)."""
    from ..mst import fast_mst, kruskal_mst

    edges, staged, diag = fast_mst(graph, k=cell.k)
    result = {
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "k_used": diag["k"],
        "clusters": diag["clusters"],
        "mst_edges": len(edges),
        "mst_weight": int(sum(graph.weight(u, v) for u, v in edges)),
        "rounds": staged.total_rounds,
        "breakdown": staged.breakdown(),
        "metrics": staged.combined.to_dict(per_round=False),
    }
    if cell.verify:
        result["ok"] = edges == kruskal_mst(graph)
    return result


def run_cell(
    cell: SweepCell,
    cache: Optional[GraphCache] = None,
    provider: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute one cell; return its store row (fully deterministic).

    ``provider`` is the module to import when ``cell.workload`` is not
    yet registered — how worker processes pick up benchmark-defined
    workloads (see :mod:`repro.batch.registry`).
    """
    workload = get_workload(cell.workload, provider)
    cache = cache if cache is not None else GraphCache()
    graph = cache.get(cell.spec, cell.seed, weighted=workload.weighted)
    key = cell.key
    with span("task", key):
        result = workload.fn(graph, cell)
    # Phase spans are retrospective: a staged run's breakdown is known
    # only after it completes (deterministic, so trace-safe).
    emit_phase_spans(key, result.get("breakdown") or {})
    return {"cell": cell.as_dict(), "result": result}


# Worker-process profiler, created on first profiled task so the dump
# accumulates every cell this worker ran (repro sweep --profile-workers).
_WORKER_PROFILER: Optional[cProfile.Profile] = None


def _worker_profiler() -> cProfile.Profile:
    global _WORKER_PROFILER
    if _WORKER_PROFILER is None:
        _WORKER_PROFILER = cProfile.Profile()
    return _WORKER_PROFILER


def _process_cell(
    task: Tuple[SweepCell, Optional[str], Optional[str]],
) -> Dict[str, Any]:
    """Worker-side cell execution: run, measure, snapshot, ship.

    Returns ``{"row", "telemetry"}`` — the deterministic store row plus
    this task's registry snapshot (the row-derived deterministic plane
    and the worker's volatile wall-clock plane), which the parent
    merges.  With ``profile_dir`` set, the worker profiles the cell and
    re-dumps its cumulative ``worker-<pid>.pstats`` after every task
    (so the dump survives however the sweep ends).
    """
    cell, provider, profile_dir = task
    cache = worker_graph_cache()
    hits, misses = cache.hits, cache.misses
    session = TelemetrySession()
    profiler: Optional[cProfile.Profile] = None
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
        profiler = _worker_profiler()
    started = time.perf_counter()
    with session.activate():
        if profiler is not None:
            profiler.enable()
        try:
            row = run_cell(cell, cache, provider)
        finally:
            if profiler is not None:
                profiler.disable()
    elapsed = time.perf_counter() - started
    if profiler is not None:
        profiler.dump_stats(
            os.path.join(profile_dir, f"worker-{os.getpid()}.pstats")
        )
    session.merge(cell_snapshot(row))
    registry = session.registry
    registry.histogram("task_seconds", volatile=True).observe(elapsed)
    cache_counter = registry.counter("graph_cache", volatile=True)
    if cache.hits > hits:
        cache_counter.inc(cache.hits - hits, outcome="hit")
    if cache.misses > misses:
        cache_counter.inc(cache.misses - misses, outcome="miss")
    return {"row": row, "telemetry": session.snapshot()}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
class SweepCellError(RuntimeError):
    """A cell failed; checkpointed rows survive for resume."""

    def __init__(self, cell: SweepCell, cause: BaseException) -> None:
        super().__init__(f"sweep cell {cell.key} failed: {cause!r}")
        self.cell = cell


class SweepCrashError(RuntimeError):
    """The worker pool crashed; ``cell_keys`` names the lost cells.

    Wraps :class:`~repro.batch.pool.PoolCrashError` with the sweep-level
    identity of every unfinished task, so an operator can resume around
    poison cells by hand (checkpointed rows survive in the store).
    """

    def __init__(
        self, cause: PoolCrashError, cell_keys: List[str]
    ) -> None:
        listed = ", ".join(cell_keys[:8])
        more = "" if len(cell_keys) <= 8 else f" (+{len(cell_keys) - 8} more)"
        super().__init__(f"{cause}; lost cells: {listed}{more}")
        self.cell_keys = list(cell_keys)

    @property
    def restarts(self) -> int:
        cause = self.__cause__
        return cause.restarts if isinstance(cause, PoolCrashError) else 0


def quarantined_row(cell: SweepCell, info: Dict[str, Any]) -> Dict[str, Any]:
    """The store row for a quarantined cell: an ``error`` record instead
    of a ``result``, so resumes can see (and optionally retry) it."""
    return {
        "cell": cell.as_dict(),
        "error": {
            "quarantined": True,
            "attempts": info.get("attempts"),
            "reason": info.get("reason"),
        },
    }


@dataclass
class SweepSummary:
    """What a sweep did: counts, timing, and grid-order merged metrics.

    ``telemetry`` is the sweep's full registry snapshot (deterministic
    plane plus volatile wall-clock plane) when telemetry was enabled —
    the deterministic sections match what a finalized store's meta
    carries.
    """

    total: int
    ran: int
    skipped: int
    complete: bool
    elapsed: float
    merged: RunMetrics
    quarantined: int = 0
    telemetry: Optional[Dict[str, Any]] = None
    rows: List[Dict[str, Any]] = field(repr=False, default_factory=list)

    @property
    def cells_per_second(self) -> float:
        return self.ran / self.elapsed if self.elapsed > 0 else 0.0


def run_sweep(
    grid: SweepGrid,
    store_path: Optional[str] = None,
    backend: str = "inline",
    workers: Optional[int] = None,
    resume: bool = True,
    max_cells: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
    echo: Callable[[str], None] = lambda line: None,
    deadline_s: Optional[float] = None,
    max_attempts: Optional[int] = None,
    chaos: Optional[Any] = None,
    retry_quarantined: bool = False,
    finalize: bool = True,
    telemetry: bool = True,
    status_path: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> SweepSummary:
    """Run (or resume) a sweep; return its summary.

    * ``store_path=None`` keeps results in memory only.
    * ``resume=True`` (default) skips cells already present in the
      store; ``False`` truncates and starts fresh.
    * ``max_cells`` bounds how many *pending* cells execute — the
      hook the interrupt/resume tests and the CI smoke job use.
    * ``shard=(i, n)`` runs only this invocation's slice of the grid
      (see :func:`shard_cells`); the store's meta records the shard,
      and :func:`~repro.batch.store.merge_stores` recombines the n
      shard stores into the one-shot store.
    * On full completion (of the grid, or of the shard's slice) the
      store is rewritten in canonical grid order (byte-identical
      across backends and worker counts) — unless ``finalize=False``
      or any cell is quarantined, which keep the checkpoint form so
      the store stays repairable/resumable.

    **Fault tolerance** (process backend; docs/robustness.md).
    ``deadline_s`` arms the hung-worker watchdog, ``max_attempts``
    caps retries before a cell is *quarantined*: recorded in the store
    as an ``error`` row and counted in ``SweepSummary.quarantined``,
    while the rest of the sweep completes.  A resumed sweep treats
    quarantined rows as present unless ``retry_quarantined=True``.
    A pool-wide crash raises :class:`SweepCrashError` naming the lost
    cells.  ``chaos`` injects a deterministic
    :class:`~repro.batch.chaos.ChaosPlan` of worker/store faults —
    the test harness for all of the above.

    **Telemetry** (on by default; docs/observability.md).  The sweep
    runs inside an ambient :class:`~repro.obs.telemetry.
    TelemetrySession`: workers ship per-cell registry snapshots back
    with their rows, fabric counters/latencies accumulate in the pool
    loop, and ``SweepSummary.telemetry`` carries the merged snapshot.
    The *deterministic* plane of that snapshot is written into the
    finalized store's meta as ``"telemetry"`` — it is a pure function
    of the rows, so it is byte-identical across backends, worker
    counts, shards, and resumes.  A store-backed sweep also heartbeats
    an atomic status sidecar (``status_path``, default
    ``<store>.status.json``; see :mod:`repro.batch.status`) rendered by
    ``repro status`` / ``repro top``.  ``telemetry=False`` turns all of
    it off — what the *enabled* path costs is gated by ``repro perf``'s
    ``telemetry.sweep_kdom`` ratio.  ``profile_dir`` makes every
    worker cProfile its cells and dump ``worker-<pid>.pstats`` there
    (``repro sweep --profile-workers``).
    """
    if backend not in SWEEP_BACKENDS:
        raise ValueError(
            f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
        )
    if chaos is not None and backend != "process":
        raise ValueError("chaos injection requires backend='process'")
    selected = shard_cells(grid.cells(), shard)
    meta = dict(grid.meta())
    if shard is not None:
        meta["shard"] = f"{shard[0]}/{shard[1]}"
    store = SweepStore(store_path) if store_path else None
    rows_by_index: Dict[int, Dict[str, Any]] = {}
    if store is not None:
        if resume:
            stored_meta, existing = store.load()
            if stored_meta is not None and _grid_mismatch(stored_meta, meta):
                raise StoreError(
                    f"{store.path} was written for a different grid; "
                    f"pass resume=False (or a new path) to overwrite"
                )
            for index, cell in selected:
                row = existing.get(cell.key)
                if row is None:
                    continue
                if retry_quarantined and "error" in row:
                    continue  # re-run the poison cell instead of skipping
                rows_by_index[index] = row
        store.begin(meta, fresh=not resume)

    pending = [
        (index, cell)
        for index, cell in selected
        if index not in rows_by_index
    ]
    skipped = len(selected) - len(pending)
    if max_cells is not None:
        pending = pending[:max_cells]

    provider = get_workload(grid.workload).provider
    # The watchdog and chaos injection live in the monitored pool loop,
    # so they must not fall back to the single-process fast path.
    hardened = deadline_s is not None or chaos is not None
    # An entered SharedPool always executes the cells (it is the first
    # route in imap_completion_order), so the single-cell/single-worker
    # inline fallback only applies when there is no pool to reuse.
    shared = SharedPool.current() if backend == "process" else None
    use_inline = backend == "inline" or (
        shared is None
        and not hardened
        and (len(pending) <= 1 or resolve_workers(workers) == 1)
    )
    # Status documents report the backend/workers that actually execute
    # cells — when the fallback runs inline, claiming a process pool
    # would make `repro top` show a phantom one.
    if use_inline:
        effective_backend, effective_workers = "inline", 1
    else:
        effective_backend = "process"
        effective_workers = (
            shared.workers
            if shared is not None
            else min(resolve_workers(workers), max(len(pending), 1))
        )

    # Telemetry: one ambient session for the live/volatile view, and a
    # separate deterministic accumulator for the store meta — fed only
    # by row-derived snapshots (worker-shipped or recomputed), so the
    # stored summary is a pure function of the rows.
    session = TelemetrySession() if telemetry else None
    det_registry = MetricsRegistry() if telemetry else None
    status: Optional[SweepStatusWriter] = None
    if telemetry:
        target = status_path or (
            status_path_for(store_path) if store_path else None
        )
        if target:
            status = SweepStatusWriter(target)
    if det_registry is not None:
        for row in rows_by_index.values():
            snap = cell_snapshot(row)
            det_registry.merge(snap)
            session.merge(snap)
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)

    start = time.perf_counter()
    ran_count = 0

    def heartbeat(state: str, force: bool = False) -> None:
        # Early-exit *before* payload construction: the remaining-cells
        # comprehension is O(total cells) and the quarantine scan is
        # O(done), so building the document on every completed cell
        # only to have the writer throttle it would make the heartbeat
        # itself a hot-path cost on large grids.
        if status is None or not status.should_write(force):
            return
        elapsed_now = time.perf_counter() - start
        done = len(rows_by_index)
        remaining = [
            cell.key
            for index, cell in selected
            if index not in rows_by_index
        ]
        rate = ran_count / elapsed_now if elapsed_now > 0 else 0.0
        vol_counters = session.registry.volatile_counters
        status.write(
            {
                "state": state,
                "workload": grid.workload,
                "shard": meta.get("shard"),
                "backend": effective_backend,
                "workers": effective_workers,
                "store": store.path if store is not None else None,
                "cells": {
                    "total": len(selected),
                    "done": done,
                    "ran": ran_count,
                    "skipped": skipped,
                    "quarantined": sum(
                        1 for r in rows_by_index.values() if "error" in r
                    ),
                    "pending": len(remaining),
                },
                "inflight": remaining[:PENDING_PREVIEW],
                "elapsed_s": elapsed_now,
                "cells_per_s": rate,
                "eta_s": (len(remaining) / rate) if rate > 0 else None,
                "fabric": fabric_tallies(vol_counters),
            },
            # The throttle already passed above; force here so a clock
            # tick between the check and the write can't drop it.
            force=True,
        )

    def record(
        index: int,
        row: Dict[str, Any],
        shipped: Optional[Dict[str, Any]] = None,
    ) -> None:
        nonlocal ran_count
        ran_count += 1
        rows_by_index[index] = row
        if store is not None:
            store.append(row)
        if det_registry is not None:
            snap = shipped if shipped is not None else cell_snapshot(row)
            det_registry.merge(deterministic_part(snap))
            session.merge(snap)
        echo(_cell_line(row))
        heartbeat("running")

    with ExitStack() as stack:
        if session is not None:
            stack.enter_context(session.activate())
            stack.enter_context(span("sweep", grid.workload))
            if shard is not None:
                stack.enter_context(
                    span("shard", f"{shard[0]}/{shard[1]}")
                )
        heartbeat("running", force=True)
        try:
            if use_inline:
                cache = GraphCache()
                profiler = cProfile.Profile() if profile_dir else None
                for index, cell in pending:
                    cell_start = time.perf_counter()
                    try:
                        if profiler is not None:
                            profiler.enable()
                        try:
                            row = run_cell(cell, cache)
                        finally:
                            if profiler is not None:
                                profiler.disable()
                    except Exception as exc:
                        raise SweepCellError(cell, exc) from exc
                    if session is not None:
                        session.registry.histogram(
                            "task_seconds", volatile=True
                        ).observe(time.perf_counter() - cell_start)
                    record(index, row)
                if profiler is not None and pending:
                    profiler.dump_stats(
                        os.path.join(
                            profile_dir, f"inline-{os.getpid()}.pstats"
                        )
                    )
            else:
                items = [
                    (cell, provider, profile_dir)
                    for _index, cell in pending
                ]
                try:
                    for position, state, payload in imap_completion_order(
                        _process_cell,
                        items,
                        workers=workers,
                        deadline_s=deadline_s,
                        max_attempts=max_attempts,
                        chaos=chaos,
                    ):
                        index, cell = pending[position]
                        if state == "error":
                            raise SweepCellError(cell, payload) from payload
                        if state == "quarantined":
                            row = quarantined_row(cell, payload)
                            shipped = None
                        else:
                            row = payload["row"]
                            shipped = payload["telemetry"]
                        record(index, row, shipped)
                        if (
                            store is not None
                            and chaos is not None
                            and chaos.should_corrupt(position)
                        ):
                            chaos.corrupt_store(store.path)
                except PoolCrashError as exc:
                    keys = [
                        cell_key(item[0].as_dict())
                        for item in exc.pending_items
                    ]
                    raise SweepCrashError(exc, keys) from exc
        except BaseException:
            heartbeat("crashed", force=True)
            raise
    elapsed = time.perf_counter() - start

    complete = len(rows_by_index) == len(selected)
    ordered = [rows_by_index[i] for i in sorted(rows_by_index)]
    quarantined = sum(1 for row in ordered if "error" in row)
    if complete and store is not None and finalize and quarantined == 0:
        final_meta = dict(meta)
        if det_registry is not None:
            summary = {"schema": TELEMETRY_SCHEMA}
            summary.update(deterministic_part(det_registry.snapshot()))
            final_meta["telemetry"] = summary
        store.finalize(final_meta, ordered)
    heartbeat("complete" if complete else "incomplete", force=True)
    merged = RunMetrics.merge(
        RunMetrics.from_dict(row["result"]["metrics"])
        for row in ordered
        if "metrics" in row.get("result", {})
    )
    return SweepSummary(
        total=len(selected),
        ran=len(pending),
        skipped=skipped,
        complete=complete,
        elapsed=elapsed,
        merged=merged,
        quarantined=quarantined,
        telemetry=session.snapshot() if session is not None else None,
        rows=ordered,
    )


def _grid_mismatch(meta: Dict[str, Any], expected: Dict[str, Any]) -> bool:
    """Compare the grid-defining fields of two meta records."""
    keys = ("schema", "workload", "specs", "seeds", "ks", "verify", "shard")
    return any(meta.get(key) != expected.get(key) for key in keys)


def _cell_line(row: Dict[str, Any]) -> str:
    cell = row["cell"]
    if "error" in row:
        error = row["error"]
        return (
            f"{cell['workload']} {cell['spec']} seed={cell['seed']} "
            f"k={cell['k']}: QUARANTINED after {error.get('attempts')} "
            f"attempt(s) ({error.get('reason')})"
        )
    result = row["result"]
    return (
        f"{cell['workload']} {cell['spec']} seed={cell['seed']} "
        f"k={cell['k']}: rounds={result.get('rounds')} "
        f"messages={result.get('metrics', {}).get('messages')}"
    )
