"""Live sweep status: an atomic sidecar file next to each store.

A running sweep heartbeats one small JSON document (``<store>.status.
json`` by default) describing where it is: progress, throughput, ETA,
retry/quarantine tallies, and the first few pending cell keys.  Writes
go through a temp file + ``os.replace`` so readers — ``repro status``,
``repro top``, a person with ``watch cat`` — always see a complete
document, even mid-heartbeat, even over NFS-ish filesystems where the
store itself is being appended to.

Unlike everything that ends up *inside* a store, the status file is
deliberately volatile: it carries wall-clock timing and is overwritten
in place.  The deterministic counterpart — the telemetry summary in a
finalized store's meta — is rendered by :func:`render_store_status`,
which ``repro status --final`` uses so summaries can be diffed across
worker counts.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from ..obs.telemetry import parse_series_key

#: Version tag on every status document.
STATUS_SCHEMA = "repro-status/1"

#: Minimum seconds between heartbeat writes (unforced).
MIN_WRITE_INTERVAL = 0.2

#: How many pending cell keys a status document lists verbatim.
PENDING_PREVIEW = 6


def status_path_for(store_path: str) -> str:
    """The sidecar path for a store: ``<store>.status.json``."""
    return store_path + ".status.json"


class SweepStatusWriter:
    """Throttled, atomic writer for one sweep's status document."""

    def __init__(
        self, path: str, min_interval: float = MIN_WRITE_INTERVAL
    ) -> None:
        self.path = path
        self.min_interval = min_interval
        self._last_write: Optional[float] = None

    def should_write(self, force: bool = False) -> bool:
        """Whether :meth:`write` would write right now.

        Pure throttle check — no clock mutation, no I/O — so callers
        can skip building the status payload entirely when the write
        would be dropped anyway (``run_sweep``'s heartbeat does this on
        every completed cell).
        """
        if force or self._last_write is None:
            return True
        return time.monotonic() - self._last_write >= self.min_interval

    def write(self, payload: Dict[str, Any], force: bool = False) -> bool:
        """Write ``payload`` (plus schema/timestamp stamps) unless a
        write happened within ``min_interval`` seconds and ``force`` is
        off.  Returns whether a write happened."""
        if not self.should_write(force):
            return False
        self._last_write = time.monotonic()
        doc = {"schema": STATUS_SCHEMA, "updated_unix": time.time()}
        doc.update(payload)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp, self.path)
        return True


def read_status(path: str) -> Dict[str, Any]:
    """Load a status document (raises OSError / ValueError on bad input)."""
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != STATUS_SCHEMA:
        raise ValueError(
            f"{path}: unknown status schema {doc.get('schema')!r} "
            f"(expected {STATUS_SCHEMA!r})"
        )
    return doc


def find_status_files(directory: str = ".") -> List[str]:
    """Every ``*.status.json`` under ``directory`` (non-recursive, sorted)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, name)
        for name in names
        if name.endswith(".status.json")
    )


def format_duration(seconds: Optional[float]) -> str:
    if seconds is None or seconds < 0:
        return "?"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def fabric_tallies(volatile_counters: Dict[str, Any]) -> Dict[str, int]:
    """Collapse the pool's labeled volatile counters into the flat
    tallies a status document carries (summing across labels)."""
    tallies = {
        "dispatched": 0,
        "completed": 0,
        "retried": 0,
        "quarantined": 0,
        "respawns": 0,
    }
    for key, value in volatile_counters.items():
        name, labels = parse_series_key(key)
        if name == "fabric_tasks" and labels.get("state") in tallies:
            tallies[labels["state"]] += int(value)
        elif name == "fabric_worker_respawns":
            tallies["respawns"] += int(value)
    return tallies


def _volatile_counter(status: Dict[str, Any], name: str) -> int:
    return int(status.get("fabric", {}).get(name, 0))


def render_status(status: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one status document."""
    workload = status.get("workload", "?")
    shard = status.get("shard")
    title = f"sweep {workload}" + (f" [shard {shard}]" if shard else "")
    cells = status.get("cells", {})
    total = cells.get("total", 0)
    done = cells.get("done", 0)
    state = str(status.get("state", "unknown")).upper()
    pct = 100.0 * done / total if total else 0.0
    lines = [f"{title}: {state} {done}/{total} cells ({pct:.1f}%)"]
    lines.append(
        f"  done {done} (ran {cells.get('ran', 0)}, "
        f"skipped {cells.get('skipped', 0)}), "
        f"quarantined {cells.get('quarantined', 0)}, "
        f"pending {cells.get('pending', 0)}"
    )
    lines.append(
        f"  backend {status.get('backend', '?')}, "
        f"workers {status.get('workers', '?')}"
    )
    rate = status.get("cells_per_s")
    rate_text = f"{rate:.2f} cells/s" if rate else "- cells/s"
    lines.append(
        f"  elapsed {format_duration(status.get('elapsed_s'))}, "
        f"{rate_text}, eta {format_duration(status.get('eta_s'))}"
    )
    lines.append(
        f"  retries {_volatile_counter(status, 'retried')}, "
        f"respawns {_volatile_counter(status, 'respawns')}"
    )
    inflight = status.get("inflight") or []
    if inflight:
        extra = cells.get("pending", 0) - len(inflight)
        suffix = f" (+{extra} more)" if extra > 0 else ""
        lines.append("  next: " + ", ".join(inflight) + suffix)
    return lines


def render_store_status(
    meta: Dict[str, Any], rows: List[Dict[str, Any]]
) -> List[str]:
    """Deterministic summary of a finalized store (no sidecar needed).

    Pure in the store contents — byte-identical across the worker and
    shard counts that produced the store, which is what the CI
    telemetry-smoke job diffs.
    """
    workload = meta.get("workload", "?")
    shard = meta.get("shard")
    title = f"sweep {workload}" + (f" [shard {shard}]" if shard else "")
    expected = meta.get("cells", len(rows))
    quarantined = sum(1 for row in rows if "error" in row)
    state = "COMPLETE" if len(rows) >= expected else "INCOMPLETE"
    lines = [f"{title}: {state} {len(rows)}/{expected} cells"]
    if quarantined:
        lines.append(f"  quarantined {quarantined}")
    telemetry = meta.get("telemetry")
    if telemetry:
        lines.append(f"  telemetry ({telemetry.get('schema')}):")
        for key, value in telemetry.get("counters", {}).items():
            lines.append(f"    {key} = {value}")
        for key, value in telemetry.get("gauges", {}).items():
            lines.append(f"    {key} = {value}")
        for key, series in telemetry.get("histograms", {}).items():
            lines.append(
                f"    {key}: count={series.get('count')} "
                f"sum={series.get('sum')}"
            )
    return lines


def render_top(statuses: List[Dict[str, Any]], paths: List[str]) -> List[str]:
    """One-line-per-sweep table for ``repro top``."""
    if not statuses:
        return ["(no *.status.json files found)"]
    rows = []
    for path, status in zip(paths, statuses):
        cells = status.get("cells", {})
        total = cells.get("total", 0)
        done = cells.get("done", 0)
        rate = status.get("cells_per_s") or 0.0
        rows.append(
            (
                os.path.basename(path).replace(".status.json", ""),
                str(status.get("state", "?")),
                f"{done}/{total}",
                f"{rate:.2f}",
                format_duration(status.get("eta_s")),
                str(cells.get("quarantined", 0)),
                str(_volatile_counter(status, "retried")),
            )
        )
    header = ("sweep", "state", "cells", "cells/s", "eta", "quar", "retry")
    widths = [
        max(len(header[i]), max(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header)))
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(header)))
        )
    return lines
