"""Event model for the observability layer.

An **event** is a plain dictionary (JSON-ready, no custom classes on the
wire) with at least:

* ``"kind"`` — one of :data:`EVENT_KINDS`;
* ``"round"`` — the round in which the engine emitted it (local to the
  emitting network run);
* ``"run"`` — the integer id of the network run within the observation
  (0 for the first network constructed, 1 for the next, ...).

Kind-specific fields (see docs/observability.md for the full schema):

========== =========================================================
kind        fields
========== =========================================================
send        ``node`` (sender), ``peer`` (receiver), ``words``,
            ``payload`` (tuple of scalar fields)
deliver     ``node`` (receiver), ``peer`` (sender), ``words``,
            ``sent_round``, ``tag``
drop /      ``node`` (sender), ``peer`` (receiver), ``seq``,
duplicate / ``detail`` (delay amount, else 0), ``plan_index`` — the
delay       index of the matching :class:`~repro.sim.faults.FaultEvent`
            in the run's :class:`~repro.sim.faults.FaultPlan`
crash       ``node``, ``plan_index``
wakeup      ``node``, ``target`` (the round the wakeup matures)
halt        ``node``
========== =========================================================

**Fabric events** (:data:`FABRIC_KINDS`) describe the execution fabric
— the worker pools running sweeps (docs/robustness.md) — rather than
any simulated network, so they carry ``round=-1`` / ``run=-1``:

================ ====================================================
kind              fields
================ ====================================================
worker_killed     ``reason`` (``"hung"``/``"crashed"``), ``workers``
                  (how many were killed for that reason at once)
task_retried      ``task`` (submission index), ``attempt``, ``reason``
task_quarantined  ``task``, ``attempts``, ``reason``
================ ====================================================

Like everything else on the stream, fabric events are deterministic
per cause: no pids, no timestamps — the chaos harness
(:mod:`repro.batch.chaos`) compares them across replays.

**Span events** (:data:`SPAN_KINDS`) mark the fabric's hierarchical
work spans (sweep → shard → task → run → phase; see
:mod:`repro.obs.telemetry`).  They share the fabric plane
(``round=-1`` / ``run=-1``) and the same determinism rule: ids derive
from cell keys, never from clocks or pids.

=========== ===================================================
kind         fields
=========== ===================================================
span_start   ``span`` (id, ``level:key``), ``parent`` (id or
             ``""``), ``level``, ``name``
span_end     ``span``
=========== ===================================================

Every simulation event kind is **model-visible**: it reflects what
programs did (send, halt, request a wakeup) or what the environment
did to messages (deliver, fault), never *how* the engine scheduled the
work.  That is what makes a trace byte-identical between a full sweep
of every program every round and the engine's active-set scheduler —
the property ``tests/obs/test_equivalence.py`` pins.  Fabric and span events are
the exception: they describe the execution layer.  Failure kinds never
appear unless the fabric actually failed (or chaos was injected);
span kinds appear whenever telemetry-instrumented drivers (sweeps,
``run_cell``) run under an observation.

Phase records (``phase-enter`` / ``phase-exit``) travel on a separate
subscriber channel (:meth:`Subscriber.on_phase`) because they describe
the *composite* timeline built by :class:`~repro.sim.runner.StagedRun`,
not a single network run.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Version tag written into every exported trace.  Bump on any change to
#: the record shapes above.
TRACE_SCHEMA = "repro-trace/1"

#: Execution-fabric event kinds (worker pools, not simulated networks);
#: emitted by :class:`repro.batch.pool.SharedPool` with round/run = -1.
FABRIC_KINDS = (
    "worker_killed",
    "task_retried",
    "task_quarantined",
)

#: Hierarchical work spans (repro.obs.telemetry); fabric-plane like
#: FABRIC_KINDS (round/run = -1) but emitted on healthy runs too.
SPAN_KINDS = (
    "span_start",
    "span_end",
)

#: Engine event kinds, in no particular order.
EVENT_KINDS = (
    "send",
    "deliver",
    "drop",
    "duplicate",
    "delay",
    "crash",
    "wakeup",
    "halt",
) + FABRIC_KINDS + SPAN_KINDS

#: The subset of kinds that mirror :class:`repro.sim.faults.FaultEvent`s.
FAULT_KINDS = ("drop", "duplicate", "delay", "crash")

Event = Dict[str, Any]


class Subscriber:
    """Base class for event-stream consumers.

    Subclasses override any subset of the hooks; the defaults are
    no-ops, so a subscriber only pays for what it listens to.  Events
    are **shared, not copied** — subscribers must not mutate them.
    """

    def on_event(self, event: Event) -> None:
        """One engine event (see the module docstring for shapes)."""

    def on_phase(self, record: Event) -> None:
        """A phase record: ``{"phase", "start", "end", "rounds"}``."""

    def on_close(self, run_records: List[Event]) -> None:
        """The observation ended; ``run_records`` summarises each run."""


class TraceBuffer(Subscriber):
    """Collects the full stream in memory (tests, views, analysis)."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.phases: List[Event] = []
        self.runs: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def on_phase(self, record: Event) -> None:
        self.phases.append(record)

    def on_close(self, run_records: List[Event]) -> None:
        self.runs = list(run_records)

    def by_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e["kind"] == kind]


class CountingSubscriber(Subscriber):
    """Counts events by kind without retaining them.

    The cheapest non-trivial subscriber — the perf harness attaches one
    to measure the *subscribed* cost of the event stream (``repro
    perf``'s ``obs`` ratios).
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.total = 0

    def on_event(self, event: Event) -> None:
        kind = event["kind"]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.total += 1
