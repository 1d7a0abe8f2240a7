"""The synchronous CONGEST network simulator.

:class:`Network` owns a topology and drives a set of
:class:`~repro.sim.program.NodeProgram` instances in lockstep rounds,
enforcing the communication model the paper assumes:

* messages carry ``O(log n)`` bits (a constant number of words);
* a node sends at most one message per incident edge per round;
* messages sent in round ``t`` are delivered at the start of round
  ``t + 1``;
* nodes may only talk to graph neighbours.

Any violation raises, so a green test suite certifies model compliance.

Engine internals (docs/performance.md has the full story):

* **Dense indexing** — node ids are mapped to contiguous integers
  ``0..n-1`` at construction; programs, inbox buckets and neighbour
  tables live in flat lists indexed by that integer, so the per-round
  sweep does list indexing instead of hash lookups on arbitrary ids.
* **Bucketed delivery** — each round's in-flight messages are appended
  directly into per-receiver buckets.  Deterministic inbox order (by
  ``str(sender)``, then ``str(payload)``) comes from a *precomputed*
  integer rank per (receiver, sender) pair instead of building string
  sort keys per message per round; the sort is skipped entirely for the
  overwhelmingly common zero/one-message inbox.
* **Active-set scheduling** — ``step()`` invokes only the programs that
  can possibly act this round: those that received a message, requested
  a wakeup, or declare ``TICK_EVERY_ROUND`` (the default, and the
  opt-out for round-counting protocols).  Message-driven algorithms
  therefore cost O(messages) engine work rather than O(n · rounds).
* **Incremental liveness** — the engine tracks the set of un-halted
  nodes as halts are observed, so ``all_halted()`` and the run loop's
  settledness check are O(1) instead of an O(n) rescan per round.

All of this is invisible to programs: scheduling, indexing and
bucketing change *how fast* a round executes, never *what* it computes
(tests/sim/test_scheduler_equivalence.py compares the active-set
scheduler with a full sweep of every program every round).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from .errors import (
    CongestionViolation,
    HaltedNodeActed,
    MessageTooLarge,
    NotANeighbor,
    RoundLimitExceeded,
)
from .faults import (
    STATE_CRASHED,
    STATE_HALTED,
    STATE_RUNNING,
    FaultInjector,
    RunReport,
)
from .metrics import RunMetrics
from .model import DEFAULT_WORD_LIMIT, Envelope
from .program import Context, NodeProgram
from ..obs.session import Tap, bind as _obs_bind

#: Default round budget.  Generous; real algorithms in this repository
#: terminate far earlier, and hitting the budget indicates a livelock.
DEFAULT_MAX_ROUNDS = 1_000_000

ProgramFactory = Callable[[Context], NodeProgram]


class Network:
    """A synchronous message-passing network over a fixed topology.

    ``graph`` may be any object exposing ``nodes`` (iterable),
    ``neighbors(v)`` (iterable) and optionally ``weight(u, v)``;
    :class:`repro.graphs.Graph` is the canonical implementation.

    ``faults`` optionally attaches a :class:`~repro.sim.faults.
    FaultInjector`; when present, :meth:`run` returns a structured
    :class:`~repro.sim.faults.RunReport` instead of bare metrics and
    converts round-budget exhaustion into a report rather than an
    exception.  When absent, every fault-handling branch is skipped and
    the network behaves exactly as the fault-free simulator.
    """

    def __init__(
        self,
        graph,
        word_limit: int = DEFAULT_WORD_LIMIT,
        faults: Optional[FaultInjector] = None,
    ):
        self.graph = graph
        self.word_limit = word_limit
        self.faults = faults
        self.nodes: List[Any] = sorted(graph.nodes)
        self.n = len(self.nodes)
        # Dense indexing: node id -> contiguous index, in sorted order,
        # so iterating indices ascending IS the deterministic node sweep.
        self._index: Dict[Any, int] = {v: i for i, v in enumerate(self.nodes)}
        self._neighbors: Dict[Any, tuple] = {
            v: tuple(sorted(graph.neighbors(v))) for v in self.nodes
        }
        self._neighbor_sets: Dict[Any, frozenset] = {
            v: frozenset(neighbors) for v, neighbors in self._neighbors.items()
        }
        self._weights: Dict[Any, Dict[Any, float]] = {}
        weight = getattr(graph, "weight", None)
        for v in self.nodes:
            if weight is None:
                self._weights[v] = {}
            else:
                self._weights[v] = {u: weight(v, u) for u in self._neighbors[v]}
        # Delivery rank: position of each sender in the receiver's
        # neighbour list sorted by str(sender) — precomputed once, so
        # deterministic inbox ordering never builds string keys again.
        # (At most one message per channel per round, so ranking senders
        # fully orders a fault-free inbox.)
        self._rank: List[Dict[Any, int]] = [
            {u: rank for rank, u in enumerate(sorted(self._neighbors[v], key=str))}
            for v in self.nodes
        ]

        self.current_round = 0
        self.programs: Dict[Any, NodeProgram] = {}
        self.metrics = RunMetrics()
        # Messages sent this round, delivered next round.
        self._outbox: List[Envelope] = []
        # Dense (sender_idx * n + receiver_idx) keys used this round,
        # for congestion checks.
        self._channels_used: Set[int] = set()
        # Flat program table, parallel to self.nodes.
        self._progs: List[NodeProgram] = []
        # Per-receiver inbox buckets (index-parallel); buckets that
        # received something this round are listed in _touched and
        # replaced with fresh lists after the sweep (programs may keep
        # references to their inbox).
        self._inboxes: List[List[Envelope]] = []
        self._touched: List[int] = []
        # Scheduling state: indices that tick every round, indices not
        # yet halted, and requested wakeups keyed by target round.
        self._always: Set[int] = set()
        self._unhalted: Set[int] = set()
        self._wakeups: Dict[int, Set[int]] = {}
        self._crashed_idx: Set[int] = set()
        # Observability tap: None unless an observation session is
        # active (repro.obs.observe) or attach_subscriber() is called.
        # Every hook below is a single `is not None` check when off —
        # that is the whole no-subscriber overhead contract.
        self._obs: Optional[Tap] = _obs_bind(self)

    def attach_subscriber(self, subscriber) -> Any:
        """Attach ``subscriber`` directly to this network's event stream.

        Works with or without an ambient :func:`repro.obs.observe`
        session; without one, the network gets a session-less tap with
        run id 0.  Returns the subscriber (handy for one-liners)."""
        if self._obs is None:
            self._obs = Tap(None, 0, [subscriber])
        else:
            self._obs.sinks.append(subscriber)
        return subscriber

    # ------------------------------------------------------------------
    # Sending (called by programs through their context)
    # ------------------------------------------------------------------
    def _enqueue(self, sender, receiver, payload) -> None:
        index = self._index
        si = index.get(sender)
        if si is not None:
            progs = self._progs
            if si < len(progs) and progs[si].halted:
                raise HaltedNodeActed(sender)
        if receiver not in self._neighbor_sets[sender]:
            raise NotANeighbor(sender, receiver)
        channel = si * self.n + index[receiver]
        used = self._channels_used
        if channel in used:
            raise CongestionViolation(sender, receiver, self.current_round)
        round_number = self.current_round
        envelope = Envelope(sender, receiver, payload, round_number)
        words = envelope.words  # measured once, at construction
        if words > self.word_limit:
            raise MessageTooLarge(sender, receiver, payload, words, self.word_limit)
        used.add(channel)
        self._outbox.append(envelope)
        # Traffic accounting, inlined from MessageStats.record: this is
        # the hottest statement in the send path.
        traffic = self.metrics.traffic
        traffic.messages += 1
        traffic.total_words += words
        if words > traffic.max_words:
            traffic.max_words = words
        per_round = traffic.per_round
        per_round[round_number] = per_round.get(round_number, 0) + 1
        obs = self._obs
        if obs is not None:
            obs.emit(
                {
                    "kind": "send",
                    "round": round_number,
                    "node": sender,
                    "peer": receiver,
                    "words": words,
                    "payload": payload,
                }
            )

    def request_wakeup(self, node, delay: int = 1) -> None:
        """Schedule ``node`` for invocation ``delay`` rounds from now
        even if it receives no message (the event-driven program's
        replacement for ticking every round)."""
        target = self.current_round + delay
        pending = self._wakeups.get(target)
        if pending is None:
            pending = self._wakeups[target] = set()
        pending.add(self._index[node])
        obs = self._obs
        if obs is not None:
            obs.emit(
                {
                    "kind": "wakeup",
                    "round": self.current_round,
                    "node": node,
                    "target": target,
                }
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def setup(self, program_factory: ProgramFactory) -> None:
        """Instantiate one program per node and run the round-0 sweep."""
        self.current_round = 0
        self.metrics = RunMetrics()
        self._outbox = []
        self._channels_used = set()
        self._wakeups = {}
        self._crashed_idx = set()
        self._touched = []
        if self.faults is not None:
            self.faults.reset()
        progs: List[NodeProgram] = []
        self.programs = {}
        for v in self.nodes:
            ctx = Context(v, self._neighbors[v], self._weights[v], self.n, self)
            program = program_factory(ctx)
            progs.append(program)
            self.programs[v] = program
        self._progs = progs
        self._inboxes = [[] for _ in range(self.n)]
        self._unhalted = set(range(self.n))
        self._always = {
            i for i, program in enumerate(progs) if program.TICK_EVERY_ROUND
        }
        for i, program in enumerate(progs):
            if not program.halted:
                program.on_start()
            if program.halted:
                self._note_halt(i)

    def _note_halt(self, i: int) -> None:
        """Sync scheduler state after observing ``programs[i].halted``."""
        if i in self._unhalted:
            self._unhalted.discard(i)
            obs = self._obs
            if obs is not None:
                obs.emit(
                    {
                        "kind": "halt",
                        "round": self.current_round,
                        "node": self.nodes[i],
                    }
                )
        self._always.discard(i)

    def _emit_faults(self, obs: Tap, plan_events, plan_mark: int) -> None:
        """Mirror FaultEvents recorded this round into the event stream.

        ``plan_index`` is the event's index in the run's
        :class:`~repro.sim.faults.FaultPlan`, so a trace line can be
        joined back to the replayable plan exactly.
        """
        for plan_index in range(plan_mark, len(plan_events)):
            fault = plan_events[plan_index]
            event = {
                "kind": fault.kind,
                "round": fault.round,
                "node": fault.node,
                "plan_index": plan_index,
            }
            if fault.target is not None:
                event["peer"] = fault.target
                event["seq"] = fault.seq
                event["detail"] = fault.detail
            obs.emit(event)

    def step(self) -> bool:
        """Execute one round; return True if the network is still live.

        A network is live while some node has not halted or a message is
        in flight toward a live node.
        """
        delivering = self._outbox
        self._outbox = []
        self._channels_used.clear()
        self.current_round += 1
        crashed_idx = self._crashed_idx
        obs = self._obs
        faulty = self.faults is not None
        if faulty:
            plan_events = self.faults.plan.events
            plan_mark = len(plan_events)
            for node in self.faults.crashes_at(self.current_round):
                i = self._index[node]
                crashed_idx.add(i)
                self._always.discard(i)
            delivering = self.faults.deliveries(delivering, self.current_round)
            if obs is not None and len(plan_events) > plan_mark:
                self._emit_faults(obs, plan_events, plan_mark)
        # Liveness before the sweep: some program un-halted and un-crashed
        # (the old engine's "did anything get invoked" bit, computed
        # without sweeping).
        unhalted = self._unhalted
        if crashed_idx:
            progressed = any(i not in crashed_idx for i in unhalted)
        else:
            progressed = bool(unhalted)

        # Bucketed delivery: append each envelope to its receiver's
        # bucket.  Buckets preserve arrival order; per-sender rank sorts
        # them deterministically below, but only when len > 1.
        index = self._index
        inboxes = self._inboxes
        touched = self._touched
        if obs is None:
            for envelope in delivering:
                ri = index[envelope.receiver]
                bucket = inboxes[ri]
                if not bucket:
                    touched.append(ri)
                bucket.append(envelope)
        else:
            # Observed twin of the loop above, kept separate so the
            # unobserved path pays nothing per message.
            round_number = self.current_round
            for envelope in delivering:
                ri = index[envelope.receiver]
                bucket = inboxes[ri]
                if not bucket:
                    touched.append(ri)
                bucket.append(envelope)
                obs.emit(
                    {
                        "kind": "deliver",
                        "round": round_number,
                        "node": envelope.receiver,
                        "peer": envelope.sender,
                        "words": envelope.words,
                        "sent_round": envelope.sent_round,
                        "tag": envelope.tag(),
                    }
                )

        # Active set: messages in, matured wakeups, always-tickers.
        active = self._wakeups.pop(self.current_round, None)
        if active is None:
            active = set(touched)
        else:
            active.update(touched)
        if self._always:
            active.update(self._always)

        progs = self._progs
        ranks = self._rank
        # Full-sweep rounds visit every index; skip the redundant sort.
        schedule = range(self.n) if len(active) == self.n else sorted(active)
        for i in schedule:
            program = progs[i]
            if program.halted:
                self._note_halt(i)
                continue
            if i in crashed_idx:
                continue
            inbox = inboxes[i]
            if len(inbox) > 1:
                rank = ranks[i]
                if faulty:
                    # Duplicates/delays can put two messages from one
                    # sender in the same inbox; break the tie exactly as
                    # the classic (str(sender), str(payload)) key did.
                    inbox.sort(key=lambda e: (rank[e.sender], str(e.payload)))
                else:
                    inbox.sort(key=lambda e: rank[e.sender])
            elif not inbox:
                inbox = []  # fresh list per invocation, as ever
            program.on_round(inbox)
            if program.halted:
                self._note_halt(i)
        if touched:
            for ri in touched:
                inboxes[ri] = []
            self._touched = []
        self.metrics.rounds = self.current_round
        return progressed and bool(self._unhalted)

    def run(
        self,
        program_factory: Optional[ProgramFactory] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        stop_when_quiet: bool = False,
        until: Optional[Callable[["Network"], bool]] = None,
    ) -> "RunMetrics | RunReport":
        """Run to completion; return metrics (or a report under faults).

        Termination: every program halted; or ``until(network)`` becomes
        true; or (if ``stop_when_quiet``) a round passes with no message
        in flight and none sent.  Exceeding ``max_rounds`` raises
        :class:`RoundLimitExceeded` — unless faults are active, in which
        case a :class:`~repro.sim.faults.RunReport` with the error noted
        is returned instead (a crash leaving peers waiting forever is an
        expected outcome there, not a driver bug).
        """
        if program_factory is not None:
            self.setup(program_factory)
        faults = self.faults
        error: Optional[str] = None
        try:
            while not self._settled():
                if until is not None and until(self):
                    break
                if (
                    stop_when_quiet
                    and not self._outbox
                    and not self._wakeups
                    and self.current_round > 0
                    and (faults is None or not faults.has_pending())
                ):
                    break
                if self.current_round >= max_rounds:
                    raise RoundLimitExceeded(max_rounds)
                self.step()
        except RoundLimitExceeded as exc:
            if faults is None:
                raise
            error = str(exc)
        self.metrics.rounds = self.current_round
        self.metrics.all_halted = self.all_halted()
        self.metrics.halted_nodes = sum(
            1 for p in self.programs.values() if p.halted
        )
        if faults is None:
            return self.metrics
        self.metrics.dropped_messages = faults.dropped
        self.metrics.duplicated_messages = faults.duplicated
        self.metrics.delayed_messages = faults.delayed
        self.metrics.crashed_nodes = len(faults.crashed)
        return self.report(error=error)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def all_halted(self) -> bool:
        if not self.programs:
            return False
        return not self._unhalted

    def _settled(self) -> bool:
        """Run-loop termination: every node halted or crash-stopped."""
        if not self.programs:
            return False
        unhalted = self._unhalted
        if not unhalted:
            return True
        if self.faults is None or not self._crashed_idx:
            return False
        return unhalted <= self._crashed_idx

    @property
    def crashed_nodes(self) -> frozenset:
        """Nodes crash-stopped so far (empty without an injector)."""
        if self.faults is None:
            return frozenset()
        return frozenset(self.faults.crashed)

    def report(self, error: Optional[str] = None) -> RunReport:
        """Build the structured :class:`RunReport` for a faulty run."""
        if self.faults is None:
            raise ValueError("report() requires a fault injector")
        crashed = self.faults.crashed
        node_states = {}
        for v, program in self.programs.items():
            if v in crashed:
                node_states[v] = STATE_CRASHED
            elif program.halted:
                node_states[v] = STATE_HALTED
            else:
                node_states[v] = STATE_RUNNING
        return RunReport(
            metrics=self.metrics,
            plan=self.faults.plan,
            node_states=node_states,
            completed=error is None and self._settled(),
            error=error,
        )

    def outputs(self) -> Dict[Any, Dict[str, Any]]:
        """Collect every node's ``output`` dictionary."""
        return {v: self.programs[v].output for v in self.nodes}

    def output_field(self, key: str) -> Dict[Any, Any]:
        """Collect one named output field across nodes (where present)."""
        return {
            v: program.output[key]
            for v, program in self.programs.items()
            if key in program.output
        }

    def neighbors(self, v) -> tuple:
        return self._neighbors[v]

