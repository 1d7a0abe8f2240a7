"""Fabric-wide telemetry: a metrics registry, sessions, and spans.

The obs event stream (:mod:`repro.obs.events`) answers *what happened
inside one simulated network*.  This module answers the questions the
batch fabric raises — how many cells ran, how many messages the whole
sweep moved, how long workers spent per task — with three pieces:

* :class:`MetricsRegistry` — counters, gauges, and histograms with
  labeled series.  Snapshots are deterministic (sorted series keys)
  and :meth:`MetricsRegistry.merge` is order-invariant, which is what
  lets worker-shipped snapshots collapse into a summary that does not
  depend on worker count or completion order.
* :class:`TelemetrySession` — an ambient registry, mirroring the
  ``observe()`` pattern: one context-variable set on entry, one lookup
  (:func:`current_telemetry`) at every instrumentation point, so the
  disabled cost stays within the same ≤1.05x discipline as the
  no-subscriber obs hooks.
* :func:`span` — hierarchical spans (sweep → shard → task → run →
  phase) with **deterministic ids derived from cell keys**, emitted
  onto the active obs observation as ``span_start`` / ``span_end``
  events in the ordinary ``repro-trace/1`` JSONL format (round/run =
  -1, like the other fabric kinds).  Span events never carry wall
  times — traces stay byte-identical across machines; durations go
  into the session registry as *volatile* histograms instead.

Determinism is handled by splitting every snapshot into two planes:

* the **deterministic plane** (``counters`` / ``gauges`` /
  ``histograms``) holds values derived purely from results — rounds,
  messages, set sizes.  Merged across any partition of the work it is
  byte-identical, and only this plane is written into sweep-store
  metas.
* the **volatile plane** (``volatile`` — same three sections) holds
  wall-clock facts: task latency, queue wait, span durations.  It is
  surfaced in live status files and summaries but never stored.

Instruments opt into the volatile plane with ``volatile=True``;
deterministic histograms must observe integers so merged sums never
see float-ordering noise.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .session import current_observation

#: Version tag stamped on telemetry summaries (store metas, status
#: files).  Bump on any change to the snapshot shape.
TELEMETRY_SCHEMA = "repro-telemetry/1"

#: Span levels, outermost first.  ``span`` ids are ``level:key`` — e.g.
#: ``sweep:kdom``, ``shard:0/2``, ``task:kdom|tree:n=40|seed=0|k=2``.
SPAN_LEVELS = ("sweep", "shard", "task", "run", "phase")

#: Histogram bucket bounds: powers of two from 2^-20 up to 2^30, then
#: overflow.  A value lands in the smallest bucket whose bound covers
#: it; labels use ``format(bound, "g")`` so they are stable strings.
_BUCKET_BOUNDS = tuple(2.0**e for e in range(-20, 31))
_BUCKET_LABELS = tuple(format(b, "g") for b in _BUCKET_BOUNDS)
_OVERFLOW = "inf"


def series_key(name: str, labels: Optional[Dict[str, Any]] = None) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """The inverse of :func:`series_key`: ``(name, labels)``, with the
    label values as strings."""
    name, brace, inner = key.partition("{")
    if not brace or not inner.endswith("}"):
        return key, {}
    pairs = (label.partition("=") for label in inner[:-1].split(","))
    return name, {label: value for label, _, value in pairs}


def _bucket_label(value: float) -> str:
    for bound, label in zip(_BUCKET_BOUNDS, _BUCKET_LABELS):
        if value <= bound:
            return label
    return _OVERFLOW


class _Instrument:
    """Shared handle state: a registry, a name, and a plane."""

    __slots__ = ("_registry", "name", "volatile")

    def __init__(self, registry: "MetricsRegistry", name: str, volatile: bool):
        self._registry = registry
        self.name = name
        self.volatile = volatile


class Counter(_Instrument):
    """A monotonically increasing sum per labeled series."""

    def inc(self, amount: int = 1, **labels: Any) -> None:
        table = self._registry._plane(self.volatile)["counters"]
        key = series_key(self.name, labels)
        table[key] = table.get(key, 0) + amount


class Gauge(_Instrument):
    """A last-written value per labeled series.

    Merging takes the max, which is the only order-invariant choice —
    use gauges for high-water marks (peak in-flight, workers seen).
    """

    def set(self, value: float, **labels: Any) -> None:
        table = self._registry._plane(self.volatile)["gauges"]
        table[series_key(self.name, labels)] = value

    def max(self, value: float, **labels: Any) -> None:
        table = self._registry._plane(self.volatile)["gauges"]
        key = series_key(self.name, labels)
        if key not in table or table[key] < value:
            table[key] = value


class Histogram(_Instrument):
    """Power-of-two buckets with count and sum per labeled series.

    Deterministic-plane histograms must observe integers (rounds,
    messages): integer sums merge order-invariantly, float sums do
    not.  Volatile histograms (latencies) take floats freely.
    """

    def observe(self, value: float, **labels: Any) -> None:
        if not self.volatile and not isinstance(value, int):
            raise TypeError(
                f"histogram {self.name!r} is deterministic; observe() "
                f"requires int values (got {value!r}) — pass volatile=True "
                f"for wall-clock data"
            )
        table = self._registry._plane(self.volatile)["histograms"]
        key = series_key(self.name, labels)
        series = table.get(key)
        if series is None:
            series = table[key] = {"count": 0, "sum": 0, "buckets": {}}
        series["count"] += 1
        series["sum"] += value
        label = _bucket_label(value)
        series["buckets"][label] = series["buckets"].get(label, 0) + 1


_EMPTY_PLANE = {"counters": {}, "gauges": {}, "histograms": {}}


def _new_plane() -> Dict[str, Dict[str, Any]]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _sorted_plane(plane: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    out["counters"] = {k: plane["counters"][k] for k in sorted(plane["counters"])}
    out["gauges"] = {k: plane["gauges"][k] for k in sorted(plane["gauges"])}
    out["histograms"] = {
        k: {
            "count": s["count"],
            "sum": s["sum"],
            "buckets": {b: s["buckets"][b] for b in sorted(s["buckets"])},
        }
        for k, s in sorted(plane["histograms"].items())
    }
    return out


def _merge_plane(
    into: Dict[str, Dict[str, Any]], plane: Dict[str, Dict[str, Any]]
) -> None:
    for key, value in plane.get("counters", {}).items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    for key, value in plane.get("gauges", {}).items():
        if key not in into["gauges"] or into["gauges"][key] < value:
            into["gauges"][key] = value
    for key, series in plane.get("histograms", {}).items():
        target = into["histograms"].get(key)
        if target is None:
            target = into["histograms"][key] = {
                "count": 0,
                "sum": 0,
                "buckets": {},
            }
        target["count"] += series["count"]
        target["sum"] += series["sum"]
        for bucket, count in series.get("buckets", {}).items():
            target["buckets"][bucket] = target["buckets"].get(bucket, 0) + count


class MetricsRegistry:
    """Process-local metric state with deterministic snapshots.

    Instruments are cheap handles; all state lives in plain dicts here
    so a snapshot is a dict copy and a merge is dict arithmetic.
    """

    def __init__(self) -> None:
        self._det = _new_plane()
        self._vol = _new_plane()

    def _plane(self, volatile: bool) -> Dict[str, Dict[str, Any]]:
        return self._vol if volatile else self._det

    @property
    def volatile_counters(self) -> Dict[str, Any]:
        """Live view of the volatile counters table (read-only use —
        cheap status rendering without a full snapshot)."""
        return self._vol["counters"]

    # -- instrument constructors -------------------------------------------
    def counter(self, name: str, volatile: bool = False) -> Counter:
        return Counter(self, name, volatile)

    def gauge(self, name: str, volatile: bool = False) -> Gauge:
        return Gauge(self, name, volatile)

    def histogram(self, name: str, volatile: bool = False) -> Histogram:
        return Histogram(self, name, volatile)

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: the deterministic plane's three
        sections at the top level, the volatile plane under
        ``"volatile"`` (omitted when empty so stored summaries stay
        compact and fully deterministic)."""
        snap = _sorted_plane(self._det)
        if self._vol != _EMPTY_PLANE:
            snap["volatile"] = _sorted_plane(self._vol)
        return snap

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot produced by :meth:`snapshot` into this
        registry.  Counters and histogram counts/sums/buckets add,
        gauges take the max — all order-invariant, so any merge order
        over any partition of the work yields the same state."""
        _merge_plane(self._det, snapshot)
        if "volatile" in snapshot:
            _merge_plane(self._vol, snapshot["volatile"])

    @classmethod
    def merged(cls, snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge many snapshots into one (convenience for summaries)."""
        registry = cls()
        for snap in snapshots:
            registry.merge(snap)
        return registry.snapshot()


# -- ambient sessions -------------------------------------------------------

_ACTIVE: ContextVar[Optional[TelemetrySession]] = ContextVar("telemetry", default=None)


def current_telemetry() -> Optional["TelemetrySession"]:
    """The innermost session active in this thread or task, or ``None``.

    This is the single check every instrumentation point performs; with
    no session active it is one ``ContextVar.get``, mirroring the
    ``Network._obs is None`` discipline on the simulation hot path.
    """
    return _ACTIVE.get()


class TelemetrySession:
    """An ambient :class:`MetricsRegistry` plus span-duration capture."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._span_seconds = self.registry.histogram(
            "span_seconds", volatile=True
        )

    @contextmanager
    def activate(self) -> Iterator["TelemetrySession"]:
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def merge(self, snapshot: Dict[str, Any]) -> None:
        self.registry.merge(snapshot)


@contextmanager
def telemetry_session() -> Iterator[TelemetrySession]:
    """``with telemetry_session() as ses:`` — make ``ses`` ambient."""
    session = TelemetrySession()
    with session.activate():
        yield session


# -- spans ------------------------------------------------------------------

#: The id of the innermost open span in this thread or task.  Apart
#: from the session so span parentage works whether or not one is active.
_SPAN: ContextVar[Optional[str]] = ContextVar("span", default=None)


def current_span() -> Optional[str]:
    return _SPAN.get()


def emit_span_event(kind: str, **fields: Any) -> None:
    """Emit a span event onto the active observation, if any.

    Span events ride the fabric plane: ``round=-1`` / ``run=-1``, no
    timestamps, ids derived from deterministic keys — so a trace that
    contains them is still byte-identical across replays.
    """
    observation = current_observation()
    if observation is None:
        return
    event: Dict[str, Any] = {"kind": kind, "round": -1, "run": -1}
    event.update(fields)
    observation.dispatch(event)


@contextmanager
def span(level: str, key: str, name: Optional[str] = None, **extra: Any):
    """Open a span ``level:key`` (e.g. ``task:<cell_key>``).

    Emits ``span_start`` / ``span_end`` onto the active observation
    (no-op without one) and records the duration into the active
    session's volatile ``span_seconds{level=...}`` histogram (no-op
    without one).  With neither active, the cost is a context-variable
    set and reset and a perf_counter call.
    """
    span_id = f"{level}:{key}"
    parent = _SPAN.get() or ""
    session = current_telemetry()
    if current_observation() is not None:
        emit_span_event(
            "span_start",
            span=span_id,
            parent=parent,
            level=level,
            name=name or key,
            **extra,
        )
    token = _SPAN.set(span_id)
    started = perf_counter()
    try:
        yield span_id
    finally:
        elapsed = perf_counter() - started
        _SPAN.reset(token)
        if session is not None:
            session._span_seconds.observe(elapsed, level=level)
        if current_observation() is not None:
            emit_span_event("span_end", span=span_id)


def emit_phase_spans(
    cell_key: str, breakdown: Dict[str, int]
) -> None:
    """Emit retrospective phase spans for one task's staged breakdown.

    Phases are known only after a staged run completes, so the pairs
    are emitted back-to-back; ``rounds`` rides on the ``span_end`` so
    the trace still carries the per-phase cost.
    """
    if current_observation() is None or not breakdown:
        return
    parent = f"task:{cell_key}"
    for phase_name, rounds in breakdown.items():
        span_id = f"phase:{cell_key}/{phase_name}"
        emit_span_event(
            "span_start",
            span=span_id,
            parent=parent,
            level="phase",
            name=phase_name,
        )
        emit_span_event("span_end", span=span_id, rounds=rounds)


def histogram_quantile(series: Dict[str, Any], q: float) -> float:
    """Approximate quantile from a snapshot histogram series (upper
    bucket bound at the q-th observation; ``inf`` maps to the largest
    finite bound)."""
    count = series.get("count", 0)
    if count <= 0:
        return 0.0
    target = max(1, int(q * count + 0.9999999))
    seen = 0
    items: List[Tuple[float, int]] = []
    for label, n in series.get("buckets", {}).items():
        bound = _BUCKET_BOUNDS[-1] if label == _OVERFLOW else float(label)
        items.append((bound, n))
    for bound, n in sorted(items):
        seen += n
        if seen >= target:
            return bound
    return items[-1][0] if items else 0.0
