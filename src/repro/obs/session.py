"""Observation sessions: how subscribers reach the engine's hook points.

Composite algorithms (``fast_mst``, ``fastdom_graph``, ...) construct
their :class:`~repro.sim.network.Network`\\ s internally, so subscribers
cannot be threaded through every driver signature.  Instead an
:class:`Observation` is installed ambiently with :func:`observe`; every
network constructed while it is active registers itself and receives a
:class:`Tap` — the tiny emit handle the engine's hot path checks with a
single ``is not None`` test.  It is ambient only in the thread or
asyncio task that entered it, and in the tasks that one creates.

Networks outside any session get no tap (``Network._obs is None``) and
pay nothing beyond that check; that is the "compiled out to no-ops"
half of the overhead contract (docs/observability.md).

A single network can also be observed directly, without a session, via
:meth:`repro.sim.network.Network.attach_subscriber` — that creates a
session-less :class:`Tap` with run id 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .events import Event, Subscriber

#: The innermost active observation; networks bind to it.
_ACTIVE: ContextVar[Optional[Observation]] = ContextVar("observation", default=None)


def current_observation() -> Optional["Observation"]:
    """The innermost observation active in this thread or task, or ``None``."""
    return _ACTIVE.get()


def bind(network: Any) -> Optional["Tap"]:
    """Register ``network`` with the active observation (engine hook)."""
    observation = current_observation()
    if observation is None:
        return None
    return observation.register(network)


class Tap:
    """Per-network emit handle; ``Network._obs`` is one of these.

    ``emit`` stamps the network's run id into the event and fans it out
    to the owning observation (if any) and to subscribers attached
    directly to the network.
    """

    __slots__ = ("observation", "run", "sinks")

    def __init__(
        self,
        observation: Optional["Observation"],
        run: int,
        sinks: Optional[List[Subscriber]] = None,
    ) -> None:
        self.observation = observation
        self.run = run
        self.sinks: List[Subscriber] = sinks if sinks is not None else []

    def emit(self, event: Event) -> None:
        event["run"] = self.run
        observation = self.observation
        if observation is not None:
            observation.dispatch(event)
        for sink in self.sinks:
            sink.on_event(event)


class Observation:
    """One observability session: subscribers plus run bookkeeping.

    Use as a context manager (or via :func:`observe`)::

        with Observation(writer, collector).activate() as obs:
            ...run algorithms...
            obs.record_phases(staged)

    ``close()`` (called automatically on context exit) finalises run
    records — one per registered network, with its final round and
    message counts — and forwards them to every subscriber's
    ``on_close``.
    """

    def __init__(self, *subscribers: Subscriber) -> None:
        self.subscribers: List[Subscriber] = list(subscribers)
        self._networks: List[Any] = []
        self.phases: List[Event] = []
        self.closed = False

    # -- subscriber plumbing ----------------------------------------------
    def add_subscriber(self, subscriber: Subscriber) -> Subscriber:
        self.subscribers.append(subscriber)
        return subscriber

    def dispatch(self, event: Event) -> None:
        for subscriber in self.subscribers:
            subscriber.on_event(event)

    # -- engine-side registration -----------------------------------------
    def register(self, network: Any) -> Tap:
        """Assign the next run id to ``network``; return its tap."""
        run = len(self._networks)
        self._networks.append(network)
        return Tap(self, run)

    @property
    def run_count(self) -> int:
        return len(self._networks)

    # -- phase spans --------------------------------------------------------
    def record_phase(self, name: str, start: int, end: int) -> None:
        """Record one phase span on the composite (global) timeline."""
        record: Event = {
            "phase": str(name),
            "start": int(start),
            "end": int(end),
            "rounds": int(end) - int(start),
        }
        self.phases.append(record)
        for subscriber in self.subscribers:
            subscriber.on_phase(record)

    def record_phases(self, staged: Any) -> None:
        """Record every span of a :class:`~repro.sim.runner.StagedRun`
        (or anything exposing ``spans()`` / an iterable of span dicts).

        Call this once, with the *top-level* staged accounting, after
        the composite algorithm finishes: the spans then reproduce its
        ``breakdown()`` exactly (nested algorithms fold their stage
        rounds into the top-level object, so recording inner StagedRuns
        as well would double-count).
        """
        spans: Iterable[Dict[str, Any]]
        spans = staged.spans() if hasattr(staged, "spans") else staged
        for span in spans:
            self.record_phase(span["name"], span["start"], span["end"])

    def phase_breakdown(self) -> Dict[str, int]:
        """Per-phase round totals from the recorded spans."""
        totals: Dict[str, int] = {}
        for record in self.phases:
            name = record["phase"]
            totals[name] = totals.get(name, 0) + record["rounds"]
        return totals

    # -- lifecycle -----------------------------------------------------------
    def run_records(self) -> List[Event]:
        """One summary record per registered network run."""
        records: List[Event] = []
        for run, network in enumerate(self._networks):
            records.append(
                {
                    "run": run,
                    "rounds": network.current_round,
                    "messages": network.metrics.traffic.messages,
                    "nodes": network.n,
                }
            )
        return records

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        records = self.run_records()
        for subscriber in self.subscribers:
            subscriber.on_close(records)

    @contextmanager
    def activate(self) -> Iterator["Observation"]:
        """Install this observation for networks this thread or task builds."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)
            self.close()


@contextmanager
def observe(*subscribers: Subscriber) -> Iterator[Observation]:
    """``with observe(writer, collector) as obs: ...`` — the one-liner
    for :class:`Observation` construction plus activation."""
    observation = Observation(*subscribers)
    with observation.activate():
        yield observation
