"""Engine-native observability for the CONGEST simulator.

The paper's claims are statements about *where rounds and messages go*:
Lemma 5.3 is about when nodes send, the FastDOM theorems are per-phase
round budgets, and §1.2 explicitly sets message complexity aside — which
is exactly why it is worth measuring.  This package gives the simulator
first-class visibility into that accounting:

* a **structured event stream** (send / deliver / drop / duplicate /
  delay / crash / wakeup / halt / phase-enter / phase-exit) emitted from
  hook points inside :mod:`repro.sim.network`'s hot path — the hooks are
  single ``is not None`` checks that collapse to no-ops when no
  subscriber is attached, so ``repro perf`` numbers are unaffected (the
  contract is itself measured: see ``repro perf``'s ``obs`` ratios);
* **per-node and per-channel metrics** (:class:`MetricsCollector`) that
  generalize the global :class:`~repro.sim.model.MessageStats` into a
  drill-downable hierarchy, recording both *sent* and *delivered* rounds
  so fault delays show up on the delivery side;
* **phase-aware spans** integrated with
  :class:`~repro.sim.runner.StagedRun`, giving composite algorithms
  (``FastDOM_T``, ``Fast-MST``) an attributed timeline;
* a **streaming JSONL exporter** (:class:`JsonlTraceWriter`) with a
  deterministic, versioned schema, plus a reader/validator and ASCII
  timeline / congestion-heatmap views used by the ``repro trace`` and
  ``repro report`` CLI subcommands.

Attach subscribers either ambiently (every :class:`~repro.sim.network.
Network` constructed inside the block joins the observation)::

    from repro.obs import MetricsCollector, observe

    collector = MetricsCollector()
    with observe(collector) as obs:
        edges, staged, diag = fast_mst(graph)
        obs.record_phases(staged)

or directly on one network via
:meth:`~repro.sim.network.Network.attach_subscriber`.

See docs/observability.md for the full schema and the overhead contract.
"""

from .events import (
    EVENT_KINDS,
    FABRIC_KINDS,
    FAULT_KINDS,
    SPAN_KINDS,
    TRACE_SCHEMA,
    CountingSubscriber,
    Subscriber,
    TraceBuffer,
)
from .export import (
    JsonlTraceWriter,
    Trace,
    TraceScan,
    TraceValidationError,
    iter_trace,
    read_trace,
    scan_trace,
    validate_trace,
)
from .metrics import ChannelMetrics, MetricsCollector, NodeMetrics
from .session import Observation, current_observation, observe
from .telemetry import (
    TELEMETRY_SCHEMA,
    MetricsRegistry,
    TelemetrySession,
    current_telemetry,
    emit_phase_spans,
    span,
    telemetry_session,
)
from .views import ascii_timeline, channel_heatmap, phase_table, summary_lines

__all__ = [
    "ChannelMetrics",
    "CountingSubscriber",
    "EVENT_KINDS",
    "FABRIC_KINDS",
    "FAULT_KINDS",
    "JsonlTraceWriter",
    "MetricsCollector",
    "MetricsRegistry",
    "NodeMetrics",
    "Observation",
    "SPAN_KINDS",
    "Subscriber",
    "TELEMETRY_SCHEMA",
    "TelemetrySession",
    "Trace",
    "TraceBuffer",
    "TraceScan",
    "TraceValidationError",
    "TRACE_SCHEMA",
    "ascii_timeline",
    "channel_heatmap",
    "current_observation",
    "current_telemetry",
    "emit_phase_spans",
    "iter_trace",
    "observe",
    "phase_table",
    "read_trace",
    "scan_trace",
    "span",
    "summary_lines",
    "telemetry_session",
    "validate_trace",
]
