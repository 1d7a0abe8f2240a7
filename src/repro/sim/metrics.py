"""Run metrics for the CONGEST simulator.

The paper's complexity claims are about *rounds* (synchronous time
units).  The simulator therefore reports round counts as the primary
measurement, alongside message/word traffic so benchmarks can also check
the congestion behaviour the paper reasons about informally.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Iterable

from .model import MessageStats


@dataclass
class RunMetrics:
    """Measurements from one synchronous execution."""

    #: Number of rounds executed (round 0 = ``on_start`` sweep included).
    rounds: int = 0
    #: Message traffic statistics.
    traffic: MessageStats = dataclass_field(default_factory=MessageStats)
    #: True if the run ended because every node halted (vs quiescence).
    all_halted: bool = False
    #: Number of nodes that had halted when the run ended.
    halted_nodes: int = 0
    #: Fault-injection counters (all zero on fault-free runs).
    dropped_messages: int = 0
    duplicated_messages: int = 0
    delayed_messages: int = 0
    crashed_nodes: int = 0

    @property
    def messages(self) -> int:
        return self.traffic.messages

    @property
    def total_words(self) -> int:
        return self.traffic.total_words

    @property
    def max_message_words(self) -> int:
        return self.traffic.max_words

    def merged_with(self, other: "RunMetrics") -> "RunMetrics":
        """Sequential composition: rounds add, traffic accumulates.

        ``other`` executes after ``self``, so its per-round traffic
        profile is shifted by ``self.rounds`` before merging — a phase
        breakdown over the composite timeline survives composition
        instead of being silently discarded.

        Halt accounting: the repository's staged drivers build a fresh
        network per stage, so ``halted_nodes`` counts halt events
        *across* stages and therefore sums (it used to be overwritten
        with only ``other``'s value, silently dropping earlier-stage
        halts from :attr:`StagedRun.combined`).  ``all_halted`` reflects
        the final stage: the composite "ended halted" iff its last
        stage did.
        """
        merged = RunMetrics()
        merged.rounds = self.rounds + other.rounds
        merged.traffic.messages = self.traffic.messages + other.traffic.messages
        merged.traffic.total_words = (
            self.traffic.total_words + other.traffic.total_words
        )
        merged.traffic.max_words = max(
            self.traffic.max_words, other.traffic.max_words
        )
        merged.traffic.per_round = dict(self.traffic.per_round)
        shift = self.rounds
        for round_number, count in other.traffic.per_round.items():
            shifted = round_number + shift
            merged.traffic.per_round[shifted] = (
                merged.traffic.per_round.get(shifted, 0) + count
            )
        merged.all_halted = other.all_halted
        merged.halted_nodes = self.halted_nodes + other.halted_nodes
        merged.dropped_messages = self.dropped_messages + other.dropped_messages
        merged.duplicated_messages = (
            self.duplicated_messages + other.duplicated_messages
        )
        merged.delayed_messages = self.delayed_messages + other.delayed_messages
        merged.crashed_nodes = self.crashed_nodes + other.crashed_nodes
        return merged

    @classmethod
    def merge(cls, runs: "Iterable[RunMetrics]") -> "RunMetrics":
        """Parallel composition over vertex-disjoint runs.

        Rounds take the maximum (the runs execute simultaneously);
        traffic, halt counts and fault counters are summed; the
        composite halted iff every constituent run halted **and there
        was at least one run**.  An empty composition returns the
        zero/default metrics (``all_halted=False``): the partition
        drivers merge per-cluster lists, and an empty cluster list must
        not vacuously claim a fully-halted execution.
        """
        merged = cls()
        seen_any = False
        merged.all_halted = True
        for metrics in runs:
            seen_any = True
            merged.rounds = max(merged.rounds, metrics.rounds)
            merged.traffic.messages += metrics.traffic.messages
            merged.traffic.total_words += metrics.traffic.total_words
            merged.traffic.max_words = max(
                merged.traffic.max_words, metrics.traffic.max_words
            )
            for round_number, count in metrics.traffic.per_round.items():
                merged.traffic.per_round[round_number] = (
                    merged.traffic.per_round.get(round_number, 0) + count
                )
            merged.all_halted = merged.all_halted and metrics.all_halted
            merged.halted_nodes += metrics.halted_nodes
            merged.dropped_messages += metrics.dropped_messages
            merged.duplicated_messages += metrics.duplicated_messages
            merged.delayed_messages += metrics.delayed_messages
            merged.crashed_nodes += metrics.crashed_nodes
        if not seen_any:
            merged.all_halted = False
        return merged

    # -- JSON transport (worker results, sweep stores) ---------------------
    def to_dict(self, per_round: bool = True) -> Dict[str, object]:
        """A JSON-serializable snapshot of these metrics.

        ``per_round=False`` drops the per-round traffic profile — sweep
        result rows keep only the aggregate numbers so stores stay
        small.  Round-trips through :meth:`from_dict`.
        """
        data: Dict[str, object] = {
            "rounds": self.rounds,
            "messages": self.traffic.messages,
            "total_words": self.traffic.total_words,
            "max_words": self.traffic.max_words,
            "all_halted": self.all_halted,
            "halted_nodes": self.halted_nodes,
            "dropped_messages": self.dropped_messages,
            "duplicated_messages": self.duplicated_messages,
            "delayed_messages": self.delayed_messages,
            "crashed_nodes": self.crashed_nodes,
        }
        if per_round:
            data["per_round"] = {
                str(r): count for r, count in sorted(self.traffic.per_round.items())
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rebuild metrics written by :meth:`to_dict` (JSON keys for the
        per-round profile come back as strings and are re-int-ed)."""
        metrics = cls()
        metrics.rounds = int(data.get("rounds", 0))
        metrics.traffic.messages = int(data.get("messages", 0))
        metrics.traffic.total_words = int(data.get("total_words", 0))
        metrics.traffic.max_words = int(data.get("max_words", 0))
        metrics.all_halted = bool(data.get("all_halted", False))
        metrics.halted_nodes = int(data.get("halted_nodes", 0))
        metrics.dropped_messages = int(data.get("dropped_messages", 0))
        metrics.duplicated_messages = int(data.get("duplicated_messages", 0))
        metrics.delayed_messages = int(data.get("delayed_messages", 0))
        metrics.crashed_nodes = int(data.get("crashed_nodes", 0))
        per_round = data.get("per_round")
        if per_round:
            metrics.traffic.per_round = {
                int(r): int(count) for r, count in per_round.items()
            }
        return metrics


def halted_metrics(
    rounds: int,
    counts: Any,
    total_words: int,
    max_words: int,
    halted_nodes: int,
) -> RunMetrics:
    """The metrics the engine reports for a fault-free run in which
    every node halts: ``counts[r]`` messages sent at round ``r``
    (``per_round`` omits zero rounds and holds Python ints).  The dense
    kernels and the direct BFS and Pipeline routes build theirs here."""
    metrics = RunMetrics(rounds=rounds, all_halted=True, halted_nodes=halted_nodes)
    traffic = metrics.traffic
    traffic.per_round = {r: int(c) for r, c in enumerate(counts) if c}
    traffic.messages = sum(traffic.per_round.values())
    traffic.total_words = total_words
    traffic.max_words = max_words
    return metrics
