"""Outside-in tracing: timing wrappers on the public functions of each layer.

:func:`install` replaces each function in :data:`TARGETS` with a wrapper
that records a span ``[name, start, end, parent, thread, attrs]`` into
a :class:`Recorder`.  Spans share one clock across processes
(``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux), the parent comes
from a context variable (so asyncio tasks and threads each keep their
own stack), and everything stays in memory until the run ends.  Pool
workers fork from a wrapped parent and inherit the wrappers; because
``SharedPool.close`` SIGKILLs them, each worker appends its spans to
``<trace_dir>/worker-<pid>.jsonl`` after every task.

:func:`attribute_sweep`, :func:`attribute_serve` and
:func:`attribute_dense` turn the spans of one traced pass into the
per-layer metrics of ``BENCHMARK.json``.  A span's layer is the module its
function lives in (:data:`TARGETS`); time no span covers is
``unattributed``.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .stats import self_times

_now = time.perf_counter
_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1
)

#: Span name of one benchmark-level operation (a dense solve).
OP_SPAN = "perfbench.op"
#: Span name of a worker writing its spans out (tracing overhead).
FLUSH_SPAN = "perfbench.flush"

#: Layers in report order; ``unattributed`` is what no span explains.
LAYERS = (
    "serve.http",
    "serve",
    "serve.result_cache",
    "serve.dispatch",
    "batch.pool",
    "batch.sweep",
    "obs.telemetry",
    "batch.cache",
    "batch.store",
    "graphs",
    "core",
    "mst",
    "sim",
    "sim.dense",
    "unattributed",
)


def nbytes(value: Any) -> int:
    """Bytes held by a numpy array, or by the arrays of a CSR view."""
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if hasattr(value, "indptr") and hasattr(value, "indices"):
        return sum(
            int(getattr(value, name).nbytes)
            for name in (
                "indptr", "indices", "ids", "str_rank", "rank_to_row",
                "weights", "degrees",
            )
            if getattr(value, name, None) is not None
        )
    return 0


def _args_bytes(args, kwargs, result, state) -> Dict[str, Any]:
    return {
        "bytes_in": sum(nbytes(a) for a in args)
        + sum(nbytes(v) for v in kwargs.values())
    }


def _query_outcome(args, kwargs, result, state) -> Dict[str, Any]:
    status, _payload, extra = result
    return {"status": status, "outcome": dict(extra).get("X-Serve-Cache", "error")}


def _cell_of(task: Any) -> Optional[Any]:
    item = task[2] if isinstance(task, tuple) and len(task) > 2 else None
    if isinstance(item, tuple) and item and hasattr(item[0], "key"):
        return item[0]
    return None


def _run_cell_attrs(args, kwargs, result, state) -> Dict[str, Any]:
    cell_result = result.get("result", {})
    return {
        "kind": args[0].workload,
        "rounds": cell_result.get("rounds", 0),
        "messages": cell_result.get("metrics", {}).get("messages", 0),
    }


def _cache_before(args, kwargs) -> int:
    return args[0].hits


def _cache_after(args, kwargs, result, hits_before) -> Dict[str, Any]:
    return {"hit": args[0].hits > hits_before, "entries": len(args[0])}


#: ``(module, attribute, span name, layer, pre, post)``: what to wrap.
#: ``pre(args, kwargs)`` runs before the call and its value reaches
#: ``post(args, kwargs, result, state)``, which returns span attributes.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.serve.server", "ReproServe._handle_query", "serve.handle_query", "serve", None, _query_outcome),
    ("repro.serve.server", "ReproServe._run_batch", "serve.run_batch", "serve.dispatch",
     lambda a, k: [key for key, _c, _p in a[1]], lambda a, k, r, keys: {"keys": keys}),
    ("repro.serve.server", "ReproServe._resolve", "serve.resolve", "serve", None,
     lambda a, k, r, s: {"key": a[1]}),
    ("repro.serve.cache", "ResultCache.get", "serve.result_cache.get", "serve.result_cache", None,
     lambda a, k, r, s: {"key": a[1], "hit": r is not None}),
    ("repro.serve.cache", "ResultCache.put", "serve.result_cache.put", "serve.result_cache", None, None),
    ("repro.batch.pool", "_invoke", "batch.pool.invoke", "batch.pool", None, None),
    ("repro.batch.sweep", "run_sweep", "batch.sweep.run_sweep", "batch.sweep", None, None),
    ("repro.batch.sweep", "_process_cell", "batch.sweep.process_cell", "batch.sweep", None, None),
    ("repro.batch.sweep", "run_cell", "batch.sweep.run_cell", "batch.sweep", None, _run_cell_attrs),
    ("repro.batch.status", "SweepStatusWriter.write", "batch.sweep.status_write", "batch.sweep", None, None),
    ("repro.obs.telemetry", "TelemetrySession.merge", "obs.telemetry.merge", "obs.telemetry", None, None),
    ("repro.obs.telemetry", "TelemetrySession.snapshot", "obs.telemetry.snapshot", "obs.telemetry", None, None),
    ("repro.obs.telemetry", "MetricsRegistry.merge", "obs.telemetry.registry_merge", "obs.telemetry", None, None),
    ("repro.batch.telemetry", "cell_snapshot", "obs.telemetry.cell_snapshot", "obs.telemetry", None, None),
    ("repro.batch.cache", "GraphCache.get", "batch.cache.get", "batch.cache", _cache_before, _cache_after),
    ("repro.batch.store", "SweepStore.begin", "batch.store.begin", "batch.store", None, None),
    ("repro.batch.store", "SweepStore.append", "batch.store.append", "batch.store", None, None),
    ("repro.batch.store", "SweepStore.finalize", "batch.store.finalize", "batch.store", None, None),
    ("repro.batch.store", "canonical_line", "batch.store.canonical_line", "batch.store", None, None),
    ("repro.graphs.specs", "parse_graph_spec", "graphs.generate", "graphs", None, None),
    ("repro.graphs.weights", "assign_unique_weights", "graphs.generate", "graphs", None, None),
    ("repro.graphs.graph", "Graph.subgraph", "graphs.subgraph", "graphs", None, None),
    ("repro.graphs.graph", "Graph.edge_subgraph", "graphs.subgraph", "graphs", None, None),
    ("repro.graphs.tree", "RootedTree.from_graph", "graphs.rooted_tree", "graphs", None, None),
    ("repro.core.fastdom_graph", "fastdom_graph", "core.fastdom_graph", "core", None, None),
    ("repro.core.spanning_forest", "simple_mst_forest", "core.simple_mst_forest", "core", None, None),
    ("repro.core.fastdom_tree", "fastdom_tree", "core.fastdom_tree", "core", None, None),
    ("repro.core.partition_fast", "dom_partition", "core.dom_partition", "core", None, None),
    ("repro.mst.fast_mst", "fast_mst", "mst.fast_mst", "mst", None, None),
    ("repro.mst.pipeline", "run_pipeline", "mst.pipeline", "mst", None, None),
    ("repro.sim.network", "Network.__init__", "sim.network_init", "sim", None, None),
    ("repro.sim.network", "Network.run", "sim.network_run", "sim", None, None),
    ("repro.sim.runner", "run_in_parallel", "sim.run_in_parallel", "sim", None, None),
    ("repro.sim.dense.csr", "csr_adjacency", "sim.dense.csr_adjacency", "sim.dense", None, None),
    ("repro.sim.dense.csr", "build_csr", "sim.dense.csr_build", "sim.dense", None,
     lambda a, k, r, s: {"bytes": nbytes(r)}),
    ("repro.sim.dense.forest", "balanced_rows", "sim.dense.balanced_rows", "sim.dense", None, _args_bytes),
    ("repro.sim.dense.forest", "dense_cluster_domination", "sim.dense.cluster_domination", "sim.dense", None, _args_bytes),
    ("repro.sim.dense.forest", "nearest_dominator_wave", "sim.dense.wave", "sim.dense", None, _args_bytes),
    ("repro.sim.dense.forest", "partition_from_labels", "sim.dense.partition_from_labels", "sim.dense", None, _args_bytes),
)

LAYER_OF: Dict[str, str] = {name: layer for _m, _a, name, layer, _p, _q in TARGETS}


class Recorder:
    """The spans of one process, in start order."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.spans: List[list] = []
        #: Off while the benchmark checks outputs after the timed region.
        self.enabled = True

    def open(self, name: str, root: bool = False) -> Tuple[list, Any]:
        entry = [name, 0.0, 0.0, -1 if root else _CURRENT.get(),
                 threading.get_ident(), None]
        with self.lock:
            index = len(self.spans)
            self.spans.append(entry)
        token = _CURRENT.set(index)
        entry[1] = _now()
        return entry, token

    def close(self, entry: list, token: Any) -> None:
        entry[2] = _now()
        _CURRENT.reset(token)

    def span(self, name: str, **attrs: Any) -> "_Span":
        """``with recorder.span(name):`` — a benchmark-level span."""
        return _Span(self, name, attrs)

    def dump(self, role: str) -> str:
        """Write every span to ``<trace_dir>/<role>-<pid>.jsonl``."""
        path = os.path.join(self.trace_dir, f"{role}-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({"role": role, "pid": os.getpid(),
                                     "spans": self.spans}) + "\n")
        return path


@contextlib.contextmanager
def paused(recorder: Optional[Recorder]):
    """Record nothing inside the block (checks between timed regions)."""
    if recorder is None or not recorder.enabled:
        yield
        return
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = True


class _Span:
    def __init__(self, recorder: Recorder, name: str, attrs: Dict[str, Any]):
        self.recorder, self.name, self.attrs = recorder, name, attrs

    def __enter__(self) -> list:
        self.entry, self.token = self.recorder.open(self.name)
        self.entry[5] = self.attrs or None
        return self.entry

    def __exit__(self, *_exc: Any) -> None:
        self.recorder.close(self.entry, self.token)


def _wrap(rec: Recorder, fn: Callable, name: str, pre, post) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            entry, token = rec.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.close(entry, token)
            if post:
                entry[5] = post(args, kwargs, result, state)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        state = pre(args, kwargs) if pre else None
        entry, token = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(entry, token)
        if post:
            entry[5] = post(args, kwargs, result, state)
        return result
    return wrapper


def _wrap_invoke(rec: Recorder, fn: Callable) -> Callable:
    """The pool trampoline, which is the root of every worker task."""

    @functools.wraps(fn)
    def invoke(task):
        if rec.pid != os.getpid():
            # First task in a freshly forked worker: drop what the
            # parent had recorded, and a lock another thread may hold.
            rec.pid, rec.spans, rec.lock = os.getpid(), [], threading.Lock()
        entry, token = rec.open("batch.pool.invoke", root=True)
        try:
            result = fn(task)
        finally:
            rec.close(entry, token)
        cell = _cell_of(task)
        entry[5] = {
            "key": cell.key if cell is not None else None,
            "bytes": len(pickle.dumps(task)) + len(pickle.dumps(result)),
        }
        started = _now()
        rec.dump("worker")
        rec.spans = [[FLUSH_SPAN, started, _now(), -1, threading.get_ident(), None]]
        return result
    return invoke


def install(rec: Recorder) -> None:
    """Wrap every function in :data:`TARGETS`, in this process and in
    every process forked from it later."""
    for module_name, attribute, name, _layer, pre, post in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(rec, raw.__func__, name, pre, post)))
            else:
                setattr(owner, attr, _wrap(rec, raw, name, pre, post))
            continue
        original = getattr(module, attr)
        if attribute == "_invoke":
            wrapped = _wrap_invoke(rec, original)
        else:
            wrapped = _wrap(rec, original, name, pre, post)
        # ``from x import f`` bound the original elsewhere: rebind there too.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
class SpanTable:
    """Spans of several processes, each with its self time and root."""

    def __init__(self) -> None:
        #: (name, start, end, self, attrs, root_name, root_attrs, pid)
        self.rows: List[Tuple[str, float, float, float, Any, str, Any, int]] = []

    def add(self, spans: List[list], pid: int) -> None:
        selfs = self_times([(s[1], s[2], s[3], s[4]) for s in spans])
        # A span whose parent ran on another thread (a callback handed
        # across threads) roots its own tree.
        roots: List[int] = []
        for index, span in enumerate(spans):
            parent = span[3]
            local = parent >= 0 and spans[parent][4] == span[4]
            roots.append(roots[parent] if local else index)
        for index, span in enumerate(spans):
            root = spans[roots[index]]
            self.rows.append((span[0], span[1], span[2], selfs[index],
                              span[5], root[0], root[5], pid))

    def where(self, keep: Callable[[tuple], bool]) -> "SpanTable":
        table = SpanTable()
        table.rows = [row for row in self.rows if keep(row)]
        return table

    def since(self, started: float) -> "SpanTable":
        """The spans that began at or after ``started`` (the timed
        region; warm-up work before it is left out)."""
        return self.where(lambda row: row[1] >= started)

    def named(self, *names: str) -> List[tuple]:
        return [row for row in self.rows if row[0] in names]

    def self_sum(self, *names: str) -> float:
        return sum(row[3] for row in self.named(*names))

    def layer_self(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for row in self.rows:
            totals[LAYER_OF.get(row[0], "unattributed")] += row[3]
        return totals


def load_worker_table(trace_dir: str) -> SpanTable:
    """Every span the pool workers flushed under ``trace_dir``, minus
    set-up tasks (tasks that carry no sweep cell)."""
    table = SpanTable()
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("worker-"):
            continue
        with open(os.path.join(trace_dir, name)) as handle:
            for line in handle:
                batch = json.loads(line)
                table.add(batch["spans"], batch["pid"])
    return table.where(
        lambda row: row[5] != "batch.pool.invoke" or (row[6] or {}).get("key")
    )


def _metrics_from_table(table: SpanTable, ops: int, messages: int) -> Dict[str, float]:
    """Counts, ratios and self time per op that every workload reports."""
    per_op = 1000.0 / max(ops, 1)

    def ms(*names: str) -> float:
        return table.self_sum(*names) * per_op

    def ratio(rows: List[tuple], flag: str) -> float:
        return sum(1 for r in rows if r[4] and r[4].get(flag)) / len(rows) if rows else 0.0

    out: Dict[str, float] = {}
    run_cells = table.named("batch.sweep.run_cell")
    for kind in ("kdom", "mst", "partition"):
        durations = [r[2] - r[1] for r in run_cells if r[4]["kind"] == kind]
        out[f"batch.run_cell_ms.{kind}"] = (
            1000.0 * sum(durations) / len(durations) if durations else 0.0
        )
    out["batch.telemetry_merge_ms"] = ms(
        "obs.telemetry.merge", "obs.telemetry.snapshot",
        "obs.telemetry.registry_merge", "obs.telemetry.cell_snapshot",
    )
    gets = table.named("batch.cache.get")
    out["batch.graph_cache.hit_ratio"] = ratio(gets, "hit")
    entries: Dict[int, int] = {}
    for row in gets:
        entries[row[7]] = max(entries.get(row[7], 0), row[4]["entries"])
    out["batch.graph_cache.entries"] = float(sum(entries.values()))
    out["batch.store.append_ms"] = ms("batch.store.append")
    out["batch.store.finalize_ms"] = ms("batch.store.finalize", "batch.store.begin")
    out["batch.store.canonical_line_ms"] = ms("batch.store.canonical_line")
    out["graphs.generate_ms"] = ms("graphs.generate")
    out["graphs.subgraph_ms"] = ms("graphs.subgraph")
    out["graphs.subgraph_calls"] = float(len(table.named("graphs.subgraph")))
    out["graphs.rooted_tree_ms"] = ms("graphs.rooted_tree")
    out["core.fastdom_graph_ms"] = ms("core.fastdom_graph")
    out["core.simple_mst_forest_ms"] = ms("core.simple_mst_forest")
    out["core.fastdom_tree_ms"] = ms("core.fastdom_tree")
    out["core.dom_partition_ms"] = ms("core.dom_partition")
    out["mst.fast_mst_ms"] = ms("mst.fast_mst")
    out["mst.pipeline_ms"] = ms("mst.pipeline")
    out["sim.networks"] = float(len(table.named("sim.network_init")))
    out["sim.network_init_ms"] = ms("sim.network_init")
    out["sim.network_run_ms"] = ms("sim.network_run", "sim.run_in_parallel")
    run_busy = sum(r[2] - r[1] for r in table.named("sim.network_run"))
    out["sim.messages_per_s"] = messages / run_busy if run_busy > 0 else 0.0
    csr_calls = table.named("sim.dense.csr_adjacency")
    builds = table.named("sim.dense.csr_build")
    out["sim.dense.csr_build_ms"] = ms("sim.dense.csr_build")
    out["sim.dense.csr_hit_ratio"] = (
        1.0 - len(builds) / len(csr_calls) if csr_calls else 0.0
    )
    out["sim.dense.csr_bytes"] = float(sum(r[4]["bytes"] for r in builds))
    kernels = (
        ("balanced_rows", "sim.dense.balanced_rows"),
        ("cluster_domination", "sim.dense.cluster_domination"),
        ("wave", "sim.dense.wave"),
        ("partition_from_labels", "sim.dense.partition_from_labels"),
    )
    bytes_in = 0
    for label, name in kernels:
        out[f"sim.dense.{label}_ms"] = ms(name)
        bytes_in += sum(r[4]["bytes_in"] for r in table.named(name))
    out["sim.dense.kernel_bytes_in"] = float(bytes_in)
    return out


def _finish(
    out: Dict[str, float],
    parts: Dict[str, float],
    op_total: float,
    ops: int,
    rounds: int,
    messages: int,
) -> Dict[str, float]:
    """Add shares, ``unattributed`` and the exact row counts."""
    rest = op_total - sum(parts.values())
    parts["unattributed"] = parts.get("unattributed", 0.0) + rest
    for layer in LAYERS:
        out[f"share.{layer}"] = parts.get(layer, 0.0) / op_total if op_total else 0.0
    out["unattributed_ms"] = parts["unattributed"] * 1000.0 / max(ops, 1)
    out["sim.rounds"] = float(rounds)
    out["sim.messages"] = float(messages)
    out["trace.ops"] = float(ops)
    out["trace.op_ms"] = op_total * 1000.0 / max(ops, 1)
    return out


def _pool_metrics(
    out: Dict[str, float],
    workers: SpanTable,
    telemetry: Dict[str, float],
    pool_workers: int,
    wall: float,
) -> float:
    """Pool metrics; returns the pool IPC time in seconds."""
    invokes = workers.named("batch.pool.invoke")
    tasks = len(invokes)
    busy = sum(r[2] - r[1] for r in invokes)
    flush = workers.self_sum(FLUSH_SPAN)
    ipc = telemetry["latency_s"] - busy - flush
    out["batch.pool.tasks"] = float(tasks)
    out["batch.pool.queue_wait_ms"] = (
        1000.0 * telemetry["queue_wait_s"] / telemetry["dispatched"]
        if telemetry["dispatched"] else 0.0
    )
    out["batch.pool.ipc_ms"] = 1000.0 * ipc / tasks if tasks else 0.0
    out["batch.pool.ipc_bytes"] = (
        sum(r[4]["bytes"] for r in invokes) / tasks if tasks else 0.0
    )
    out["batch.pool.worker_busy_frac"] = busy / (pool_workers * wall) if wall else 0.0
    out["batch.pool.retries"] = float(telemetry["retries"])
    return ipc


def _zero_serve(out: Dict[str, float]) -> None:
    for name in ("serve.http_ms", "serve.result_cache.hit_ratio",
                 "serve.result_cache.evictions", "serve.dispatch.queue_wait_ms",
                 "serve.dispatch.batch_cells"):
        out[name] = 0.0


def _zero_pool(out: Dict[str, float]) -> None:
    for name in ("batch.pool.tasks", "batch.pool.queue_wait_ms", "batch.pool.ipc_ms",
                 "batch.pool.ipc_bytes", "batch.pool.worker_busy_frac",
                 "batch.pool.retries"):
        out[name] = 0.0


def attribute_sweep(
    parent: SpanTable,
    workers: SpanTable,
    telemetry: Dict[str, float],
    pool_workers: int,
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of the sweep workload.

    An op is one cell: from its dispatch to the pool until its result
    is back (the pool's own ``fabric_task_latency_s``), plus the work
    the parent does to record it.  The worker's spans split the task;
    the rest of the latency is pool IPC.
    """
    cells = len(workers.named("batch.pool.invoke"))
    work = parent.where(lambda row: row[0] != "batch.sweep.run_sweep")
    rows = workers.named("batch.sweep.run_cell")
    messages = sum(r[4]["messages"] for r in rows)
    out = _metrics_from_table(_merge(work, workers), cells, messages)
    _zero_serve(out)
    ipc = _pool_metrics(out, workers, telemetry, pool_workers, wall)
    parts: Dict[str, float] = defaultdict(float)
    for table in (work, workers):
        for layer, value in table.layer_self().items():
            parts[layer] += value
    parts["batch.pool"] += ipc
    op_total = telemetry["latency_s"] + sum(row[3] for row in work.rows)
    return _finish(out, parts, op_total, cells,
                   sum(r[4]["rounds"] for r in rows), messages)


def attribute_serve(
    server: SpanTable,
    workers: SpanTable,
    telemetry: Dict[str, float],
    client_latency_s: float,
    queries: int,
    evictions: int,
    pool_workers: int,
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of the serve workload.

    An op is one query as the client times it.  ``serve.http`` is the
    part no server-side span covers.  A hit splits into the cache
    lookup and the handler's own code.  A miss is followed along its
    cell: cache lookup, wait for the dispatcher thread, wait for a pool
    slot, pool IPC, the worker's spans, and the result's resolution on
    the event loop; what is left (thread hops, wake-ups) is
    unattributed.  A query that joins another's in-flight cell waits
    on dispatch.
    """
    handles = server.named("serve.handle_query")
    handled = sum(r[2] - r[1] for r in handles)
    rows = workers.named("batch.sweep.run_cell")
    messages = sum(r[4]["messages"] for r in rows)
    out = _metrics_from_table(_merge(server, workers), queries, messages)
    ipc = _pool_metrics(out, workers, telemetry, pool_workers, wall)
    parts: Dict[str, float] = defaultdict(float)
    parts["serve.http"] = client_latency_s - handled
    gets = server.named("serve.result_cache.get")
    parts["serve.result_cache"] += sum(r[2] - r[1] for r in gets)
    for row in handles:
        outcome = (row[4] or {}).get("outcome")
        if outcome == "hit":
            parts["serve"] += row[3]
        elif outcome == "flight":
            parts["serve.dispatch"] += row[3]
    # Dispatcher wait: from a key's cache miss to the batch that runs it.
    batches = sorted((r[1], r[4]["keys"]) for r in server.named("serve.run_batch"))
    starts = [started for started, _keys in batches]
    waits = []
    for row in gets:
        if row[4]["hit"]:
            continue
        missed_at = row[2]
        for started, keys in batches[bisect.bisect_left(starts, missed_at):]:
            if row[4]["key"] in keys:
                waits.append(started - missed_at)
                break
    parts["serve.dispatch"] += sum(waits)
    parts["batch.pool"] += telemetry["queue_wait_s"] + ipc
    for layer, value in workers.layer_self().items():
        parts[layer] += value
    resolved = server.where(lambda row: row[5] == "serve.resolve")
    for layer, value in resolved.layer_self().items():
        parts[layer] += value
    out["serve.http_ms"] = 1000.0 * parts["serve.http"] / max(queries, 1)
    out["serve.result_cache.hit_ratio"] = (
        sum(1 for r in gets if r[4]["hit"]) / len(gets) if gets else 0.0
    )
    out["serve.result_cache.evictions"] = float(evictions)
    out["serve.dispatch.queue_wait_ms"] = 1000.0 * sum(waits) / len(waits) if waits else 0.0
    out["serve.dispatch.batch_cells"] = (
        sum(len(keys) for _s, keys in batches) / len(batches) if batches else 0.0
    )
    return _finish(out, parts, client_latency_s, queries,
                   sum(r[4]["rounds"] for r in rows), messages)


def attribute_dense(
    table: SpanTable, ops: int, rounds: int, messages: int
) -> Dict[str, float]:
    """Per-layer metrics of the dense workload.

    An op is one ``fastdom_tree`` call as the benchmark times it.  The
    ``_ms`` metrics count every span of the pass, tree generation and
    rooting included (so ``graphs.*`` moves with ``setup_s``); the
    shares count only the spans inside ops.
    """
    out = _metrics_from_table(table, ops, messages)
    _zero_serve(out)
    _zero_pool(out)
    inside = table.where(lambda row: row[5] == OP_SPAN)
    parts: Dict[str, float] = defaultdict(float)
    for layer, value in inside.where(lambda row: row[0] != OP_SPAN).layer_self().items():
        parts[layer] += value
    op_total = sum(r[2] - r[1] for r in inside.named(OP_SPAN))
    return _finish(out, parts, op_total, ops, rounds, messages)


def _merge(*tables: SpanTable) -> SpanTable:
    merged = SpanTable()
    for table in tables:
        merged.rows.extend(table.rows)
    return merged


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    out = _metrics_from_table(SpanTable(), 1, 0)
    _zero_serve(out)
    _zero_pool(out)
    return sorted(_finish(out, {}, 0.0, 0, 0, 0)) + ["trace.overhead_frac"]


def telemetry_sums(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """The pool's own wall-clock sums from telemetry snapshots (the
    volatile plane of a sweep summary or of serve's ``/metrics``)."""
    sums = {"latency_s": 0.0, "queue_wait_s": 0.0, "dispatched": 0, "retries": 0}
    for snapshot in snapshots:
        volatile = (snapshot or {}).get("volatile", {})
        histograms = volatile.get("histograms", {})
        counters = volatile.get("counters", {})
        sums["latency_s"] += histograms.get("fabric_task_latency_s", {}).get("sum", 0.0)
        wait = histograms.get("fabric_queue_wait_s", {})
        sums["queue_wait_s"] += wait.get("sum", 0.0)
        sums["dispatched"] += wait.get("count", 0)
        sums["retries"] += counters.get("fabric_tasks{state=retried}", 0)
    return sums
