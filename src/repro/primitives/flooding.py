"""Flooding: propagate a value to every node without a tree.

Each node forwards the first copy it receives to all other neighbours.
Cost: eccentricity of the source.  Used as a baseline primitive and in
tests of the simulator's delivery semantics.  It runs on the reference
engine only: no workload floods at a size where an array port would pay.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..sim.model import Envelope
from ..sim.network import Network
from ..sim.program import Context, NodeProgram


class FloodProgram(NodeProgram):
    """Flood ``value`` from ``source``; output ``value`` and ``hops``."""

    # Message-driven: a node acts exactly once, on first receipt.
    TICK_EVERY_ROUND = False

    def __init__(self, ctx: Context, source: Any, value: Any = None):
        super().__init__(ctx)
        self.is_source = ctx.node == source
        self.value = value if self.is_source else None

    def on_start(self) -> None:
        if self.is_source:
            self.output["value"] = self.value
            self.output["hops"] = 0
            self.broadcast("FLOOD", self.value, 1)
            self.halt()

    def on_round(self, inbox: List[Envelope]) -> None:
        for envelope in inbox:
            if envelope.tag() == "FLOOD":
                _tag, value, hops = envelope.payload
                self.output["value"] = value
                self.output["hops"] = hops
                for neighbor in self.neighbors:
                    if neighbor != envelope.sender:
                        self.send(neighbor, "FLOOD", value, hops + 1)
                self.halt()
                return


def flood(
    graph,
    source: Any,
    value: Any,
    word_limit: int = 8,
    faults: Any = None,
) -> Tuple[Dict[Any, Any], "Network"]:
    """Flood ``value`` from ``source``; return (value map, network)."""
    network = Network(graph, word_limit=word_limit, faults=faults)
    network.run(lambda ctx: FloodProgram(ctx, source, value))
    return network.output_field("value"), network
