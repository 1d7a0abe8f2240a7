"""Deterministic fault injection for the CONGEST simulator.

The paper proves its bounds in a perfectly reliable synchronous model;
this module supplies the adversary that production networks actually
are.  A :class:`FaultInjector` plugs into :class:`~repro.sim.network.
Network` at delivery time and may, per in-flight message, **drop** it,
**duplicate** it, or **delay** it by a bounded number of rounds; it may
also **crash-stop** scheduled nodes at the start of a scheduled round.

Everything is deterministic: decisions come from a ``random.Random``
seeded by :class:`FaultConfig.seed`, and the simulator examines
messages in a deterministic order, so a fixed seed always yields the
same faults.  Every injected fault is recorded as a :class:`FaultEvent`
in a :class:`FaultPlan`; :meth:`FaultInjector.replay` re-applies a
recorded plan verbatim, which is the contract the resilience tests and
benchmarks rely on (same plan in, same :class:`RunReport` out).

Scope notes:

* a message suffers at most one fault (the decision is a single draw);
* messages addressed to an already-crashed node vanish silently — the
  crash event itself is the recorded fault;
* model violations (oversized messages, congestion, ...) still raise:
  faults model the environment, not buggy algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from .errors import FaultConfigError
from .metrics import RunMetrics
from .model import Envelope

#: Fault kinds, as recorded in :class:`FaultEvent.kind`.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CRASH = "crash"

MESSAGE_FAULTS = (DROP, DUPLICATE, DELAY)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    For message faults ``node``/``target`` are the envelope's sender and
    receiver and ``seq`` is the envelope's position in that round's
    delivery scan (the replay key).  For crashes ``node`` is the crashed
    node, ``target`` is ``None`` and ``seq`` is ``-1``.  ``detail``
    carries the delay amount for :data:`DELAY` events, else ``0``.
    """

    round: int
    kind: str
    node: Any
    target: Any
    seq: int
    detail: int = 0


@dataclass
class FaultPlan:
    """The complete, replayable record of one run's injected faults."""

    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def __len__(self) -> int:
        return len(self.events)


def _normalize_crashes(crashes) -> Dict[Any, int]:
    if isinstance(crashes, Mapping):
        items = list(crashes.items())
    else:
        items = [tuple(pair) for pair in crashes]
    table: Dict[Any, int] = {}
    for node, round_number in items:
        if node in table:
            raise FaultConfigError(f"node {node!r} scheduled to crash twice")
        if round_number < 1:
            raise FaultConfigError(
                f"crash round for node {node!r} must be >= 1 "
                f"(round 0 is the on_start sweep), got {round_number}"
            )
        table[node] = int(round_number)
    return table


@dataclass
class FaultConfig:
    """Parameters of the fault adversary.

    Message-fault rates are probabilities per in-flight message and a
    single decision is drawn per message, so the rates must sum to at
    most 1.  ``crashes`` maps node -> round (or is an iterable of
    ``(node, round)`` pairs); the node crash-stops at the *start* of
    that round, before processing its inbox.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    crashes: Any = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.duplicate_rate + self.delay_rate > 1.0:
            raise FaultConfigError(
                "drop_rate + duplicate_rate + delay_rate must not exceed 1"
            )
        if self.max_delay < 1:
            raise FaultConfigError(
                f"max_delay must be >= 1, got {self.max_delay}"
            )
        self.crashes = _normalize_crashes(self.crashes)

    @property
    def has_message_faults(self) -> bool:
        return bool(self.drop_rate or self.duplicate_rate or self.delay_rate)


class FaultInjector:
    """Seeded fault adversary; one instance drives one ``Network``.

    The network calls :meth:`crashes_at` once at the start of every
    round and :meth:`deliveries` once per round on the batch of
    envelopes that would normally be delivered.  Both are no-ops when
    the configuration specifies no faults of that class, so an injector
    with an empty config reproduces the fault-free schedule exactly.
    """

    def __init__(self, config: Optional[FaultConfig] = None):
        self.config = config if config is not None else FaultConfig()
        self._script: Optional[Dict[Tuple[int, int], FaultEvent]] = None
        self._script_crashes: Dict[int, List[Any]] = {}
        self.reset()

    @classmethod
    def replay(cls, plan: FaultPlan) -> "FaultInjector":
        """Build an injector that re-applies ``plan``'s faults verbatim."""
        injector = cls(FaultConfig(seed=plan.seed))
        injector._source_events = list(plan.events)
        injector.reset()
        return injector

    _source_events: Optional[List[FaultEvent]] = None

    def reset(self) -> None:
        """Forget all run state (called by ``Network.setup``)."""
        self._rng = random.Random(self.config.seed)
        self.plan = FaultPlan(seed=self.config.seed)
        self._pending: Dict[int, List[Envelope]] = {}
        self.crashed: Set[Any] = set()
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        if self._source_events is not None:
            self._script = {}
            self._script_crashes = {}
            for event in self._source_events:
                if event.kind == CRASH:
                    self._script_crashes.setdefault(event.round, []).append(
                        event.node
                    )
                else:
                    self._script[(event.round, event.seq)] = event

    # ------------------------------------------------------------------
    # Hooks called by Network.step()
    # ------------------------------------------------------------------
    def crashes_at(self, round_number: int) -> List[Any]:
        """Crash-stop the nodes scheduled for this round; return them."""
        if self._script is not None or self._script_crashes:
            nodes = list(self._script_crashes.get(round_number, []))
        else:
            nodes = sorted(
                (v for v, r in self.config.crashes.items() if r == round_number),
                key=str,
            )
        for node in nodes:
            self.crashed.add(node)
            self.plan.record(FaultEvent(round_number, CRASH, node, None, -1))
        return nodes

    def deliveries(
        self, outbox: List[Envelope], round_number: int
    ) -> List[Envelope]:
        """Apply message faults to ``outbox``; return what arrives now.

        The result also includes previously delayed envelopes that
        mature this round.  Matured envelopes are not faulted again.
        """
        deliver: List[Envelope] = list(self._pending.pop(round_number, ()))
        for seq, envelope in enumerate(outbox):
            decision = self._decide(round_number, seq, envelope)
            if decision is None:
                deliver.append(envelope)
                continue
            kind, amount = decision
            if kind == DROP:
                self.dropped += 1
            elif kind == DUPLICATE:
                self.duplicated += 1
                deliver.append(envelope)
                deliver.append(envelope)
            else:  # DELAY
                self.delayed += 1
                self._pending.setdefault(round_number + amount, []).append(
                    envelope
                )
        return deliver

    def has_pending(self) -> bool:
        """True while a delayed message is in flight or a scheduled crash
        is still to come: either can still change a quiet run."""
        if self._pending:
            return True
        if self._script is not None or self._script_crashes:
            scheduled = [v for nodes in self._script_crashes.values() for v in nodes]
        else:
            scheduled = self.config.crashes
        return any(v not in self.crashed for v in scheduled)

    # ------------------------------------------------------------------
    def _decide(
        self, round_number: int, seq: int, envelope: Envelope
    ) -> Optional[Tuple[str, int]]:
        if self._script is not None:
            event = self._script.get((round_number, seq))
            if event is None:
                return None
            if event.node != envelope.sender or event.target != envelope.receiver:
                raise FaultConfigError(
                    f"replay mismatch at round {round_number} seq {seq}: plan "
                    f"recorded {event.node}->{event.target} but the run "
                    f"produced {envelope.sender}->{envelope.receiver}; replay "
                    f"requires the identical program and seed"
                )
            self.plan.record(event)
            return event.kind, event.detail
        config = self.config
        if not config.has_message_faults:
            return None
        draw = self._rng.random()
        threshold = config.drop_rate
        if draw < threshold:
            kind, amount = DROP, 0
        elif draw < threshold + config.duplicate_rate:
            kind, amount = DUPLICATE, 0
        elif draw < threshold + config.duplicate_rate + config.delay_rate:
            kind, amount = DELAY, self._rng.randint(1, config.max_delay)
        else:
            return None
        self.plan.record(
            FaultEvent(
                round_number, kind, envelope.sender, envelope.receiver, seq, amount
            )
        )
        return kind, amount


#: Per-node execution states reported by :class:`RunReport`.
STATE_HALTED = "halted"
STATE_CRASHED = "crashed"
STATE_RUNNING = "running"


@dataclass
class RunReport:
    """Structured outcome of a run with faults active.

    Returned by :meth:`Network.run` instead of bare metrics (and instead
    of an opaque :class:`RoundLimitExceeded`) so drivers can reason
    about partial executions: what was injected, who crashed, who never
    terminated, and what the run cost.
    """

    metrics: RunMetrics
    plan: FaultPlan
    node_states: Dict[Any, str]
    completed: bool
    error: Optional[str] = None

    # -- conveniences mirroring RunMetrics ------------------------------
    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def all_halted(self) -> bool:
        return self.metrics.all_halted

    def crashed(self) -> Tuple[Any, ...]:
        return tuple(
            sorted(
                (v for v, s in self.node_states.items() if s == STATE_CRASHED),
                key=str,
            )
        )

    def survivors(self) -> Tuple[Any, ...]:
        return tuple(
            sorted(
                (v for v, s in self.node_states.items() if s != STATE_CRASHED),
                key=str,
            )
        )

    def running(self) -> Tuple[Any, ...]:
        """Nodes that neither halted nor crashed — stuck or abandoned."""
        return tuple(
            sorted(
                (v for v, s in self.node_states.items() if s == STATE_RUNNING),
                key=str,
            )
        )

    def summary(self) -> str:
        """Human-readable multi-line digest (used by the CLI)."""
        m = self.metrics
        states = {
            STATE_HALTED: 0,
            STATE_CRASHED: 0,
            STATE_RUNNING: 0,
        }
        for state in self.node_states.values():
            states[state] += 1
        lines = [
            f"completed: {self.completed}"
            + (f"  ({self.error})" if self.error else ""),
            f"rounds: {m.rounds}  messages: {m.messages} "
            f"({m.total_words} words)",
            f"faults: dropped={m.dropped_messages} "
            f"duplicated={m.duplicated_messages} "
            f"delayed={m.delayed_messages} crashed={m.crashed_nodes}",
            f"nodes: halted={states[STATE_HALTED]} "
            f"crashed={states[STATE_CRASHED]} "
            f"running={states[STATE_RUNNING]}",
        ]
        if states[STATE_RUNNING]:
            lines.append(f"stuck: {list(self.running())}")
        return "\n".join(lines)
