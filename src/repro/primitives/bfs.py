"""Distributed BFS tree construction with full termination detection.

This is the engine of the paper's Procedure ``Initialize`` (Fig. 1):

1. a BFS wave from the root labels every node with its distance
   ``Depth(v)``;
2. an echo wave reports the maximum depth ``M`` back to the root;
3. the root broadcasts ``M`` down the tree.

Because execution is synchronous, when a node receives the ``M``
broadcast at round ``r`` it knows the broadcast started at
``r - Depth(v)`` and hence that *every* node will have received it by
round ``t1 = r - Depth(v) + M + 1`` — the paper's "at this point every
node can calculate the time t1" (proof of Lemma 2.3).  Subclasses (for
example :class:`repro.core.diam_dom.DiamDOMProgram`) override
:meth:`on_initialized` to continue at that common round.

The wave protocol: on adopting depth ``d`` a node replies ``ACCEPT`` to
its chosen parent (smallest id among same-round offers), ``REJECT`` to
other offerers, and forwards the wave to all remaining neighbours.  A
node that has forwarded and received a response from every neighbour
and an ``ECHO`` from every accepted child echoes the maximum subtree
depth to its parent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..sim.model import Envelope
from ..sim.network import Network
from ..sim.program import Context, NodeProgram


class BFSTreeProgram(NodeProgram):
    """BFS tree + depth labels + tree depth ``M``, from a given root.

    Outputs: ``parent``, ``depth``, ``children``, ``tree_depth`` (M),
    ``t1`` (first round strictly after global completion).
    """

    # Message-driven: every transition reacts to an inbox message.  The
    # one timed action — a just-adopted node's deferred echo, whose
    # channel to the parent is occupied by this round's ACCEPT — is
    # scheduled with an explicit wakeup in on_round.  (DiamDOMProgram
    # reinstates every-round ticking: its censuses fire on round
    # numbers, not messages.)
    TICK_EVERY_ROUND = False

    def __init__(self, ctx: Context, root: Any):
        super().__init__(ctx)
        self.root = root
        self.is_root = ctx.node == root
        self.parent: Optional[Any] = None
        self.depth: Optional[int] = None
        self.children: Set[Any] = set()
        self._expecting_responses = 0
        self._echoes_received = 0
        self._echoed = False
        self._subtree_max_depth = 0
        self.tree_depth: Optional[int] = None
        self.t1: Optional[int] = None

    # -- wave ----------------------------------------------------------------
    def on_start(self) -> None:
        if self.is_root:
            self.depth = 0
            self._subtree_max_depth = 0
            self._expecting_responses = len(self.neighbors)
            for neighbor in self.neighbors:
                self.send(neighbor, "WAVE", 1)
            self._maybe_echo()

    def on_round(self, inbox: List[Envelope]) -> None:
        just_adopted = False
        offers = [e for e in inbox if e.tag() == "WAVE"]
        if self.depth is None and offers:
            self._adopt(offers)
            # The ACCEPT to the parent occupies this round's channel; a
            # leaf's ECHO to the same parent must wait for the next round
            # (one message per edge per direction per round) — which may
            # deliver us nothing, so ask the scheduler for it explicitly.
            just_adopted = True
            self.request_wakeup()
        elif offers:
            for envelope in offers:
                self.send(envelope.sender, "REJECT")
        for envelope in inbox:
            tag = envelope.tag()
            if tag == "ACCEPT":
                self.children.add(envelope.sender)
                self._expecting_responses -= 1
            elif tag == "REJECT":
                self._expecting_responses -= 1
            elif tag == "ECHO":
                self._echoes_received += 1
                self._subtree_max_depth = max(
                    self._subtree_max_depth, envelope.payload[1]
                )
            elif tag == "MFIN":
                self._handle_mfin(envelope)
        if self.depth is not None and not self._echoed and not just_adopted:
            self._maybe_echo()

    def _adopt(self, offers: List[Envelope]) -> None:
        offers.sort(key=lambda e: str(e.sender))
        chosen = offers[0]
        self.parent = chosen.sender
        self.depth = chosen.payload[1]
        self._subtree_max_depth = self.depth
        self.send(self.parent, "ACCEPT")
        for envelope in offers[1:]:
            self.send(envelope.sender, "REJECT")
        others = [
            nb
            for nb in self.neighbors
            if nb != self.parent and nb not in {e.sender for e in offers}
        ]
        self._expecting_responses = len(others)
        for neighbor in others:
            self.send(neighbor, "WAVE", self.depth + 1)

    # -- echo ------------------------------------------------------------------
    def _maybe_echo(self) -> None:
        if self._expecting_responses > 0:
            return
        if self._echoes_received < len(self.children):
            return
        self._echoed = True
        if self.is_root:
            self.tree_depth = self._subtree_max_depth
            self._broadcast_m()
        else:
            self.send(self.parent, "ECHO", self._subtree_max_depth)

    # -- M broadcast -------------------------------------------------------------
    def _broadcast_m(self) -> None:
        broadcast_start = self.round
        self.t1 = broadcast_start + self.tree_depth + 1
        for child in sorted(self.children, key=str):
            self.send(child, "MFIN", self.tree_depth)
        self._finish()

    def _handle_mfin(self, envelope: Envelope) -> None:
        self.tree_depth = envelope.payload[1]
        broadcast_start = self.round - self.depth
        self.t1 = broadcast_start + self.tree_depth + 1
        for child in sorted(self.children, key=str):
            self.send(child, "MFIN", self.tree_depth)
        self._finish()

    def _finish(self) -> None:
        self.output["parent"] = self.parent
        self.output["depth"] = self.depth
        self.output["children"] = tuple(sorted(self.children, key=str))
        self.output["tree_depth"] = self.tree_depth
        self.output["t1"] = self.t1
        self.on_initialized()

    # -- extension hook -------------------------------------------------------
    def on_initialized(self) -> None:
        """Called once ``M`` and ``t1`` are known; default: halt."""
        self.halt()


def build_bfs_tree(
    graph,
    root: Any,
    word_limit: int = 8,
    backend: str = "reference",
    faults: Any = None,
) -> Tuple[Dict[Any, Optional[Any]], Dict[Any, int], "Network"]:
    """Run the distributed BFS; return (parent map, depth map, network).

    ``backend="dense"`` computes the identical tree, outputs, round
    count, and metrics with array kernels.  It emits no events, so it
    defers to the reference engine whenever an observation session is
    active (or a fault plan is installed) — trace consumers always see
    genuine engine events.
    """
    if backend == "dense":
        from ..obs.session import current_observation
        from ..sim.dense import dense_bfs_tree, plan_bfs, require_numpy

        require_numpy()
        if faults is None and current_observation() is None:
            plan = plan_bfs(graph, root, word_limit)
            if plan is not None:
                run = dense_bfs_tree(graph, root, plan)
                return run.bfs_parents, run.bfs_depths, run
    elif backend != "reference":
        raise ValueError(f"unknown backend {backend!r}")
    network = Network(graph, word_limit=word_limit, faults=faults)
    network.run(lambda ctx: BFSTreeProgram(ctx, root))
    parents = network.output_field("parent")
    depths = network.output_field("depth")
    return parents, depths, network
