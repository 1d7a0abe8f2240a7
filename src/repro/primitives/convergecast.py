"""Tree convergecast: aggregate values from the leaves to the root.

The building block of the paper's Procedure ``Census`` (§2.2): each
node combines its children's contributions with its own and forwards
the result to its parent.  Cost: ``depth`` rounds (leaves start
immediately; a node fires as soon as all children have reported).

It runs on the reference engine only.  TreeKDom's DP convergecast has
its own dense kernel (:func:`repro.sim.dense.forest.dense_cluster_domination`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.model import Envelope
from ..sim.network import Network
from ..sim.program import Context, NodeProgram

#: Combiner: (own local value, list of child aggregates) -> aggregate.
Combiner = Callable[[Any, List[Any]], Any]


def sum_combiner(own: Any, child_values: List[Any]) -> Any:
    return own + sum(child_values)


def max_combiner(own: Any, child_values: List[Any]) -> Any:
    return max([own] + child_values)


def min_combiner(own: Any, child_values: List[Any]) -> Any:
    return min([own] + child_values)


class ConvergecastProgram(NodeProgram):
    """Aggregate ``local_value`` over a known tree toward the root.

    Outputs at every node: ``aggregate`` (over its own subtree); the
    root's aggregate is the global answer.
    """

    # Message-driven: leaves fire at start, inner nodes fire on the
    # arrival of their last child's aggregate.
    TICK_EVERY_ROUND = False

    def __init__(
        self,
        ctx: Context,
        root: Any,
        parent_of: Dict[Any, Optional[Any]],
        local_value: Any,
        combiner: Combiner = sum_combiner,
    ):
        super().__init__(ctx)
        self.is_root = ctx.node == root
        self.parent = parent_of.get(ctx.node)
        self.children = tuple(
            nb for nb in ctx.neighbors if parent_of.get(nb) == ctx.node
        )
        self.local_value = local_value
        self.combiner = combiner
        self._child_values: List[Any] = []

    def _maybe_fire(self) -> None:
        if len(self._child_values) < len(self.children):
            return
        aggregate = self.combiner(self.local_value, self._child_values)
        self.output["aggregate"] = aggregate
        if not self.is_root:
            self.send(self.parent, "CC", aggregate)
        self.halt()

    def on_start(self) -> None:
        self._maybe_fire()

    def on_round(self, inbox: List[Envelope]) -> None:
        for envelope in inbox:
            if envelope.tag() == "CC":
                self._child_values.append(envelope.payload[1])
        self._maybe_fire()


def tree_convergecast(
    graph,
    root: Any,
    parent_of: Dict[Any, Optional[Any]],
    local_values: Dict[Any, Any],
    combiner: Combiner = sum_combiner,
    word_limit: int = 8,
) -> Tuple[Any, "Network"]:
    """Run a convergecast; return (root aggregate, network)."""
    network = Network(graph, word_limit=word_limit)
    network.run(
        lambda ctx: ConvergecastProgram(
            ctx, root, parent_of, local_values[ctx.node], combiner
        )
    )
    return network.programs[root].output["aggregate"], network
