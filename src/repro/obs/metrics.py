"""Per-node and per-channel metrics built from the event stream.

:class:`~repro.sim.model.MessageStats` answers "how much traffic did
the run cost, per round?" with one global dict — and it books every
message at its **sent** round only, so a fault-delayed message is
invisible on the delivery side.  :class:`MetricsCollector` generalizes
that accounting into a drill-downable hierarchy:

* **global** — ``per_round_sent`` / ``per_round_delivered`` (the latter
  is where delayed deliveries show up: a message sent in round *t* and
  delayed by *d* is booked as sent at *t* and delivered at *t + 1 + d*);
* **per node** (:class:`NodeMetrics`) — sent/received message and word
  counts, first/last activity, halt/crash round, wakeups, and the
  node's stall intervals (rounds between its first and last send with
  no send — the quantity Lemma 5.3 proves is empty for Pipeline);
* **per directed channel** (:class:`ChannelMetrics`) — messages, words,
  sent-vs-delivered round profiles, fault counts, and link utilization.

The collector is an ordinary :class:`~repro.obs.events.Subscriber`:
attach it with :func:`repro.obs.observe` or
:meth:`repro.sim.network.Network.attach_subscriber`.  Node ids from
distinct runs of one observation are aggregated by id (sequential
stages of a composite algorithm reuse the same graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class NodeMetrics:
    """Traffic and lifecycle accounting for one node."""

    node: Any
    sent_messages: int = 0
    sent_words: int = 0
    recv_messages: int = 0
    recv_words: int = 0
    wakeups: int = 0
    halt_round: Optional[int] = None
    crash_round: Optional[int] = None
    first_activity: Optional[int] = None
    last_activity: Optional[int] = None
    send_rounds: set = field(default_factory=set)

    def _touch(self, round_number: int) -> None:
        if self.first_activity is None or round_number < self.first_activity:
            self.first_activity = round_number
        if self.last_activity is None or round_number > self.last_activity:
            self.last_activity = round_number

    def stall_intervals(self) -> List[Tuple[int, int]]:
        """Inclusive ``(start, end)`` gaps between consecutive sends.

        Empty for nodes that sent in every round between their first
        and last send — the "no waiting" shape of Lemma 5.3.
        """
        rounds = sorted(self.send_rounds)
        intervals = []
        for earlier, later in zip(rounds, rounds[1:]):
            if later > earlier + 1:
                intervals.append((earlier + 1, later - 1))
        return intervals

    def stalls(self) -> List[int]:
        """Flat list of stalled rounds."""
        return [
            r
            for start, end in self.stall_intervals()
            for r in range(start, end + 1)
        ]


@dataclass
class ChannelMetrics:
    """Traffic accounting for one directed channel (sender -> receiver)."""

    sender: Any
    receiver: Any
    messages: int = 0
    words: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    per_round_sent: Dict[int, int] = field(default_factory=dict)
    per_round_delivered: Dict[int, int] = field(default_factory=dict)

    @property
    def first_sent(self) -> Optional[int]:
        return min(self.per_round_sent) if self.per_round_sent else None

    @property
    def last_sent(self) -> Optional[int]:
        return max(self.per_round_sent) if self.per_round_sent else None

    def utilization(self, rounds: Optional[int] = None) -> float:
        """Fraction of rounds this channel carried a message.

        Against ``rounds`` when given, else against the channel's own
        active window (first to last send, inclusive).
        """
        if not self.per_round_sent:
            return 0.0
        if rounds is None:
            rounds = self.last_sent - self.first_sent + 1
        if rounds <= 0:
            return 0.0
        return len(self.per_round_sent) / rounds


class MetricsCollector:
    """Event-stream subscriber building the node/channel hierarchy."""

    def __init__(self) -> None:
        self.nodes: Dict[Any, NodeMetrics] = {}
        self.channels: Dict[Tuple[Any, Any], ChannelMetrics] = {}
        self.per_round_sent: Dict[int, int] = {}
        self.per_round_delivered: Dict[int, int] = {}
        self.messages = 0
        self.total_words = 0
        self.events = 0

    # -- Subscriber interface ----------------------------------------------
    def on_phase(self, record: Dict[str, Any]) -> None:
        pass

    def on_close(self, run_records: List[Dict[str, Any]]) -> None:
        pass

    def on_event(self, event: Dict[str, Any]) -> None:
        self.events += 1
        kind = event["kind"]
        round_number = event["round"]
        if kind == "send":
            node = self._node(event["node"])
            words = event["words"]
            node.sent_messages += 1
            node.sent_words += words
            node.send_rounds.add(round_number)
            node._touch(round_number)
            channel = self._channel(event["node"], event["peer"])
            channel.messages += 1
            channel.words += words
            channel.per_round_sent[round_number] = (
                channel.per_round_sent.get(round_number, 0) + 1
            )
            self.per_round_sent[round_number] = (
                self.per_round_sent.get(round_number, 0) + 1
            )
            self.messages += 1
            self.total_words += words
        elif kind == "deliver":
            node = self._node(event["node"])
            node.recv_messages += 1
            node.recv_words += event["words"]
            node._touch(round_number)
            channel = self._channel(event["peer"], event["node"])
            channel.delivered += 1
            channel.per_round_delivered[round_number] = (
                channel.per_round_delivered.get(round_number, 0) + 1
            )
            self.per_round_delivered[round_number] = (
                self.per_round_delivered.get(round_number, 0) + 1
            )
        elif kind == "halt":
            node = self._node(event["node"])
            node.halt_round = round_number
            node._touch(round_number)
        elif kind == "wakeup":
            self._node(event["node"]).wakeups += 1
        elif kind == "crash":
            node = self._node(event["node"])
            node.crash_round = round_number
            node._touch(round_number)
        elif kind == "drop":
            self._channel(event["node"], event["peer"]).dropped += 1
        elif kind == "duplicate":
            self._channel(event["node"], event["peer"]).duplicated += 1
        elif kind == "delay":
            self._channel(event["node"], event["peer"]).delayed += 1

    # -- lookups --------------------------------------------------------------
    def _node(self, node: Any) -> NodeMetrics:
        metrics = self.nodes.get(node)
        if metrics is None:
            metrics = self.nodes[node] = NodeMetrics(node)
        return metrics

    def _channel(self, sender: Any, receiver: Any) -> ChannelMetrics:
        key = (sender, receiver)
        metrics = self.channels.get(key)
        if metrics is None:
            metrics = self.channels[key] = ChannelMetrics(sender, receiver)
        return metrics

    # -- drill-down conveniences ----------------------------------------------
    def node(self, node: Any) -> NodeMetrics:
        """Metrics for ``node`` (zeros if it never appeared)."""
        return self.nodes.get(node, NodeMetrics(node))

    def channel(self, sender: Any, receiver: Any) -> ChannelMetrics:
        return self.channels.get(
            (sender, receiver), ChannelMetrics(sender, receiver)
        )

    def top_channels(self, count: int = 10) -> List[ChannelMetrics]:
        """The busiest channels, by message count then stable key order."""
        ordered = sorted(
            self.channels.values(),
            key=lambda c: (-c.messages, str(c.sender), str(c.receiver)),
        )
        return ordered[:count]

    def busiest_round_sent(self) -> int:
        if not self.per_round_sent:
            return 0
        return max(
            self.per_round_sent, key=lambda r: (self.per_round_sent[r], -r)
        )

    def busiest_round_delivered(self) -> int:
        if not self.per_round_delivered:
            return 0
        return max(
            self.per_round_delivered,
            key=lambda r: (self.per_round_delivered[r], -r),
        )
