"""Process-parallel batch execution: pools, caches, sweeps, stores.

The scaling layer parallelises across independent cells, not inside
one run: a persistent :class:`SharedPool` of worker processes, a
decorator registry of sweep workloads, and a sharded sweep runner that
fans a (graph-spec × seed × k) grid across workers — or across hosts
via ``--shard i/N`` plus :func:`merge_stores` — with graph-generation
caching and a checkpoint/resume JSONL result store.  See
docs/performance.md ("Batch execution and sweeps").

The fabric is *hardened* (docs/robustness.md): dead and hung workers
are detected and replaced (``deadline_s`` watchdog), poison tasks are
quarantined after bounded retries instead of crashing the batch, store
rows carry checksums (:func:`repair_store` salvages a damaged store),
and the whole story is drilled deterministically by
:mod:`repro.batch.chaos`.
"""

from .cache import GraphCache
from .chaos import ChaosAction, ChaosPlan, ChaosReport, run_chaos
from .pool import (
    PoolCrashError,
    SharedPool,
    TaskQuarantinedError,
    imap_completion_order,
    resolve_workers,
)
from .registry import (
    Workload,
    WorkloadError,
    get_workload,
    register_workload,
    workload_names,
)
from .status import (
    STATUS_SCHEMA,
    SweepStatusWriter,
    find_status_files,
    read_status,
    render_status,
    render_store_status,
    render_top,
    status_path_for,
)
from .store import (
    SCHEMA,
    SalvageReport,
    StoreCorruption,
    StoreError,
    SweepStore,
    canonical_line,
    cell_key,
    merge_stores,
    repair_store,
)
from .portfolio import (
    PORTFOLIO_SCHEMA,
    PortfolioError,
    REDUCTIONS,
    portfolio_run,
    portfolio_verdict,
    render_verdict,
    verdict_json,
    verdict_path_for,
)
from .sweep import (
    SWEEP_BACKENDS,
    SweepCell,
    SweepCellError,
    SweepCrashError,
    SweepGrid,
    SweepSummary,
    fast_grid,
    parse_shard,
    run_cell,
    run_sweep,
    shard_cells,
)
from .telemetry import (
    aggregate_profiles,
    cell_snapshot,
    deterministic_part,
    store_telemetry,
    strip_telemetry,
)

__all__ = [
    "ChaosAction",
    "ChaosPlan",
    "ChaosReport",
    "GraphCache",
    "PORTFOLIO_SCHEMA",
    "PoolCrashError",
    "PortfolioError",
    "REDUCTIONS",
    "SCHEMA",
    "STATUS_SCHEMA",
    "SWEEP_BACKENDS",
    "SalvageReport",
    "SharedPool",
    "StoreCorruption",
    "StoreError",
    "SweepCell",
    "SweepCellError",
    "SweepCrashError",
    "SweepGrid",
    "SweepStatusWriter",
    "SweepStore",
    "SweepSummary",
    "TaskQuarantinedError",
    "Workload",
    "WorkloadError",
    "aggregate_profiles",
    "canonical_line",
    "cell_key",
    "cell_snapshot",
    "deterministic_part",
    "fast_grid",
    "find_status_files",
    "get_workload",
    "imap_completion_order",
    "merge_stores",
    "parse_shard",
    "portfolio_run",
    "portfolio_verdict",
    "read_status",
    "register_workload",
    "render_status",
    "render_verdict",
    "render_store_status",
    "render_top",
    "repair_store",
    "resolve_workers",
    "run_cell",
    "run_chaos",
    "run_sweep",
    "shard_cells",
    "status_path_for",
    "store_telemetry",
    "strip_telemetry",
    "verdict_json",
    "verdict_path_for",
    "workload_names",
]
