"""Streaming JSONL trace export, reading, and schema validation.

A trace file is one JSON object per line.  Every line has a
``"record"`` discriminator:

* ``header`` — first line; carries ``"schema"`` (:data:`TRACE_SCHEMA`)
  and a free-form deterministic ``"meta"`` dict (algo, graph spec, seed
  — never timestamps or platform info, so traces of seeded runs are
  byte-identical across machines and schedulers);
* ``event`` — one engine event (see :mod:`repro.obs.events`), streamed
  as it happens;
* ``phase`` — one composite-timeline span (written when the driver
  calls :meth:`Observation.record_phases`);
* ``run`` — per-network summary, written at observation close;
* ``summary`` — last line; event counts by kind (a cheap integrity
  check for the validator).

Serialization is canonical: ``sort_keys=True``, compact separators, and
tuples encode as JSON arrays.  Anything non-JSON (exotic node ids)
falls back to ``str``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from .events import (
    EVENT_KINDS,
    FABRIC_KINDS,
    SPAN_KINDS,
    TRACE_SCHEMA,
    Event,
    Subscriber,
)

#: Required fields per event kind (beyond "record"/"kind"/"round"/"run").
_EVENT_FIELDS = {
    "send": ("node", "peer", "words", "payload"),
    "deliver": ("node", "peer", "words", "sent_round", "tag"),
    "drop": ("node", "peer", "seq", "plan_index"),
    "duplicate": ("node", "peer", "seq", "plan_index"),
    "delay": ("node", "peer", "seq", "detail", "plan_index"),
    "crash": ("node", "plan_index"),
    "wakeup": ("node", "target"),
    "halt": ("node",),
    "worker_killed": ("reason", "workers"),
    "task_retried": ("task", "attempt", "reason"),
    "task_quarantined": ("task", "attempts", "reason"),
    "span_start": ("span", "parent", "level", "name"),
    "span_end": ("span",),
}

#: Kinds allowed to carry round/run = -1 (execution-layer events).
_FABRIC_PLANE = frozenset(FABRIC_KINDS) | frozenset(SPAN_KINDS)


class TraceValidationError(ValueError):
    """A trace failed schema validation; ``problems`` lists why."""

    def __init__(self, problems: List[str]):
        super().__init__(
            f"{len(problems)} schema problem(s): " + "; ".join(problems[:5])
        )
        self.problems = problems


def _encode(obj: Any) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )


class JsonlTraceWriter(Subscriber):
    """Subscriber that streams the observation to a JSONL file.

    ``target`` is a path (the writer owns and closes the handle) or an
    open file-like object (left open; handy for in-memory buffers).
    The header is written immediately so even a crashed run leaves a
    parseable prefix.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.counts: Dict[str, int] = {}
        self.events = 0
        self.closed = False
        self._write(
            {"record": "header", "schema": TRACE_SCHEMA, "meta": meta or {}}
        )

    def _write(self, obj: Dict[str, Any]) -> None:
        self._handle.write(_encode(obj))
        self._handle.write("\n")

    # -- Subscriber interface ----------------------------------------------
    def on_event(self, event: Event) -> None:
        kind = event["kind"]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.events += 1
        self._write({"record": "event", **event})

    def on_phase(self, record: Event) -> None:
        self._write({"record": "phase", **record})

    def on_close(self, run_records: List[Event]) -> None:
        if self.closed:
            return
        self.closed = True
        for record in run_records:
            self._write({"record": "run", **record})
        self._write(
            {
                "record": "summary",
                "events": self.events,
                "by_kind": dict(sorted(self.counts.items())),
            }
        )
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class Trace:
    """A parsed trace: header plus record lists, with drill-down helpers."""

    def __init__(
        self,
        header: Dict[str, Any],
        events: List[Dict[str, Any]],
        phases: List[Dict[str, Any]],
        runs: List[Dict[str, Any]],
        summary: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.header = header
        self.events = events
        self.phases = phases
        self.runs = runs
        self.summary = summary

    @property
    def schema(self) -> Any:
        return self.header.get("schema")

    @property
    def meta(self) -> Dict[str, Any]:
        return self.header.get("meta", {})

    def by_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("kind") == kind]

    def phase_breakdown(self) -> Dict[str, int]:
        """Per-phase round totals (matches ``PhaseBreakdown.phases``)."""
        totals: Dict[str, int] = {}
        for record in self.phases:
            name = record["phase"]
            totals[name] = totals.get(name, 0) + record["rounds"]
        return totals

    @property
    def total_rounds(self) -> int:
        """Composite rounds: phase total when phases were recorded,
        else the sum of per-run rounds (sequential composition)."""
        if self.phases:
            return sum(r["rounds"] for r in self.phases)
        return sum(r.get("rounds", 0) for r in self.runs)

    @classmethod
    def from_buffer(cls, buffer: Any, meta: Optional[Dict] = None) -> "Trace":
        """Build a Trace from an in-memory :class:`TraceBuffer`."""
        return cls(
            header={"schema": TRACE_SCHEMA, "meta": meta or {}},
            events=list(buffer.events),
            phases=list(buffer.phases),
            runs=list(buffer.runs),
        )


def iter_trace(source: Union[str, IO[str]]) -> Iterator[Dict[str, Any]]:
    """Lazily yield the records of a JSONL trace, one parsed dict per
    line, in file order.

    This is the streaming primitive behind :func:`read_trace` and
    :class:`TraceScan`: one line is held in memory at a time, so a
    multi-gigabyte sweep trace can be validated and summarised without
    materialising its event list.  Raises
    :class:`TraceValidationError` on structurally unreadable input
    (bad JSON, a non-header first line, unknown record types); schema
    problems *within* well-formed records are the validator's job.
    """
    if isinstance(source, str):
        handle: IO[str] = open(source)
        owns = True
    else:
        handle = source
        owns = False
    try:
        index = -1
        for raw in handle:
            index += 1
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceValidationError(
                    [f"line {index + 1}: bad JSON ({exc})"]
                )
            record = obj.get("record")
            if index == 0 and record != "header":
                raise TraceValidationError(
                    ["first line is not a header record"]
                )
            if record not in ("header", "event", "phase", "run", "summary"):
                raise TraceValidationError(
                    [f"line {index + 1}: unknown record type {record!r}"]
                )
            yield obj
        if index < 0:
            raise TraceValidationError(["empty trace: no header record"])
    finally:
        if owns:
            handle.close()


def read_trace(source: Union[str, IO[str]]) -> Trace:
    """Parse a JSONL trace file (path or handle) into a :class:`Trace`.

    Materialises every record — fine for single-run traces, but prefer
    :func:`iter_trace` / :class:`TraceScan` for sweep-scale files.
    Raises :class:`TraceValidationError` on structurally unreadable
    input (bad JSON, missing header); use :func:`validate_trace` for
    the full schema check.
    """
    header: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    phases: List[Dict[str, Any]] = []
    runs: List[Dict[str, Any]] = []
    summary: Optional[Dict[str, Any]] = None
    for obj in iter_trace(source):
        record = obj.get("record")
        if record == "header":
            header = obj
        elif record == "event":
            events.append(obj)
        elif record == "phase":
            phases.append(obj)
        elif record == "run":
            runs.append(obj)
        else:
            summary = obj
    if header is None:
        raise TraceValidationError(["empty trace: no header record"])
    return Trace(header, events, phases, runs, summary)


def _event_problems(event: Dict[str, Any], index: int) -> List[str]:
    problems: List[str] = []
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        return [f"event {index}: unknown kind {kind!r}"]
    # Fabric/span events describe the execution layer, not a simulated
    # round/run; they carry -1 in both fields by convention.
    floor = -1 if kind in _FABRIC_PLANE else 0
    for key in ("round", "run"):
        value = event.get(key)
        if not isinstance(value, int) or value < floor:
            expected = (
                "an integer >= -1" if floor < 0 else "a non-negative integer"
            )
            problems.append(
                f"event {index} ({kind}): {key}={value!r} is not "
                f"{expected}"
            )
    for key in _EVENT_FIELDS[kind]:
        if key not in event:
            problems.append(f"event {index} ({kind}): missing {key!r}")
    return problems


def _phase_problems(record: Dict[str, Any], index: int) -> List[str]:
    problems: List[str] = []
    for key in ("phase", "start", "end", "rounds"):
        if key not in record:
            problems.append(f"phase {index}: missing {key!r}")
    if (
        all(k in record for k in ("start", "end", "rounds"))
        and record["end"] - record["start"] != record["rounds"]
    ):
        problems.append(
            f"phase {index} ({record.get('phase')!r}): end - start != "
            f"rounds"
        )
    return problems


def _run_problems(record: Dict[str, Any], index: int) -> List[str]:
    return [
        f"run {index}: missing {key!r}"
        for key in ("run", "rounds", "messages", "nodes")
        if key not in record
    ]


def _summary_problems(
    summary: Optional[Dict[str, Any]],
    events_total: int,
    by_kind: Dict[str, int],
) -> List[str]:
    if summary is None:
        return []
    problems: List[str] = []
    if summary.get("events") != events_total:
        problems.append(
            f"summary counts {summary.get('events')} events, "
            f"trace has {events_total}"
        )
    if summary.get("by_kind") != by_kind:
        problems.append("summary by_kind does not match the events")
    return problems


def validate_trace(trace: Union[Trace, str, IO[str]]) -> List[str]:
    """Validate a trace against :data:`TRACE_SCHEMA`.

    Accepts a :class:`Trace`, a path, or a handle.  Returns the list of
    problems — empty means valid.  For large files prefer
    :func:`scan_trace`, which validates in the same order while
    streaming.
    """
    if not isinstance(trace, Trace):
        try:
            trace = read_trace(trace)
        except TraceValidationError as exc:
            return list(exc.problems)
    problems: List[str] = []
    if trace.schema != TRACE_SCHEMA:
        problems.append(
            f"unknown schema {trace.schema!r} (expected {TRACE_SCHEMA!r})"
        )
    for index, event in enumerate(trace.events):
        problems.extend(_event_problems(event, index))
    for index, record in enumerate(trace.phases):
        problems.extend(_phase_problems(record, index))
    for index, record in enumerate(trace.runs):
        problems.extend(_run_problems(record, index))
    by_kind: Dict[str, int] = {}
    for event in trace.events:
        kind = event.get("kind")
        by_kind[kind] = by_kind.get(kind, 0) + 1
    problems.extend(
        _summary_problems(trace.summary, len(trace.events), by_kind)
    )
    return problems


class TraceScan:
    """A single streaming pass over a trace: counts, profiles, and
    validation — without retaining the event list.

    Holds O(runs x rounds + channels x rounds) state (the send
    profiles the ASCII views need) instead of O(events), so ``repro
    report`` works on sweep-scale traces.  The accumulated problems
    match :func:`validate_trace` exactly — same messages, same order
    (events, then phases, then runs, then the summary check).
    """

    def __init__(self, header: Dict[str, Any]) -> None:
        self.header = header
        self.events_total = 0
        self.by_kind: Dict[str, int] = {}
        self.fabric_by_kind: Dict[str, int] = {}
        self.send_profiles_by_run: Dict[int, Dict[int, int]] = {}
        self.channel_profiles: Dict[Tuple[str, str], Dict[int, int]] = {}
        self.total_sends = 0
        self.phases: List[Dict[str, Any]] = []
        self.runs: List[Dict[str, Any]] = []
        self.summary: Optional[Dict[str, Any]] = None
        self._event_problems: List[str] = []
        self._phase_problems: List[str] = []
        self._run_problems: List[str] = []

    # -- accessors mirroring Trace ------------------------------------------
    @property
    def schema(self) -> Any:
        return self.header.get("schema")

    @property
    def meta(self) -> Dict[str, Any]:
        return self.header.get("meta", {})

    def phase_breakdown(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.phases:
            name = record["phase"]
            totals[name] = totals.get(name, 0) + record["rounds"]
        return totals

    @property
    def total_rounds(self) -> int:
        if self.phases:
            return sum(r["rounds"] for r in self.phases)
        return sum(r.get("rounds", 0) for r in self.runs)

    # -- accumulation --------------------------------------------------------
    def _add_event(self, event: Dict[str, Any]) -> None:
        index = self.events_total
        self.events_total += 1
        kind = event.get("kind")
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self._event_problems.extend(_event_problems(event, index))
        rnd = event.get("round")
        if isinstance(rnd, int) and rnd < 0:
            self.fabric_by_kind[kind] = self.fabric_by_kind.get(kind, 0) + 1
            return
        if kind == "send" and isinstance(rnd, int):
            self.total_sends += 1
            run_profile = self.send_profiles_by_run.setdefault(
                event.get("run", 0), {}
            )
            run_profile[rnd] = run_profile.get(rnd, 0) + 1
            channel = (str(event.get("node")), str(event.get("peer")))
            profile = self.channel_profiles.setdefault(channel, {})
            profile[rnd] = profile.get(rnd, 0) + 1

    def _add(self, obj: Dict[str, Any]) -> None:
        record = obj.get("record")
        if record == "event":
            self._add_event(obj)
        elif record == "phase":
            self._phase_problems.extend(
                _phase_problems(obj, len(self.phases))
            )
            self.phases.append(obj)
        elif record == "run":
            self._run_problems.extend(_run_problems(obj, len(self.runs)))
            self.runs.append(obj)
        elif record == "summary":
            self.summary = obj

    def problems(self) -> List[str]:
        """All validation problems, in :func:`validate_trace` order."""
        problems: List[str] = []
        if self.schema != TRACE_SCHEMA:
            problems.append(
                f"unknown schema {self.schema!r} (expected {TRACE_SCHEMA!r})"
            )
        problems.extend(self._event_problems)
        problems.extend(self._phase_problems)
        problems.extend(self._run_problems)
        problems.extend(
            _summary_problems(self.summary, self.events_total, self.by_kind)
        )
        return problems


def scan_trace(source: Union[str, IO[str]]) -> TraceScan:
    """Stream a trace once into a :class:`TraceScan` (the constant-ish
    memory counterpart of ``read_trace`` + ``validate_trace``)."""
    scan: Optional[TraceScan] = None
    for obj in iter_trace(source):
        if obj.get("record") == "header":
            scan = TraceScan(obj)
        elif scan is not None:
            scan._add(obj)
    if scan is None:
        raise TraceValidationError(["empty trace: no header record"])
    return scan
