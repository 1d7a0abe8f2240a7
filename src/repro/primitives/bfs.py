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

:func:`build_bfs_tree` simulates this only when it must: unobserved and
fault-free, its reference backend computes the run in closed form
(:func:`_direct_bfs`) and ``backend="dense"`` with array kernels; both
give the engine's tree, outputs and metrics exactly
(tests/differential/).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.session import current_observation
from ..sim.errors import RoundLimitExceeded
from ..sim.metrics import halted_metrics
from ..sim.model import Envelope
from ..sim.network import DEFAULT_MAX_ROUNDS, Network
from ..sim.program import Context, NodeProgram
from ..sim.runner import RunRecord


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
) -> Tuple[Dict[Any, Optional[Any]], Dict[Any, int], Any]:
    """Build the BFS tree from ``root``; return (parent map, depth map,
    run), the run being the :class:`Network` or, off the engine, a
    :class:`~repro.sim.runner.RunRecord` with the same outputs and
    metrics.

    Unobserved and fault-free, neither backend simulates: the reference
    backend computes :class:`BFSTreeProgram`'s run in closed form over
    dicts (:func:`_direct_bfs`) and ``backend="dense"`` with array
    kernels.  The engine runs under an observation (only it emits
    events), under a fault plan, and for inputs outside the closed
    form's contract, which it then fails in its own way.  Unobserved
    and fault-free, an absent ``root`` or a disconnected graph raises
    the engine's :class:`RoundLimitExceeded` without stepping out its
    round budget.  A faulted run stops once nothing is in flight and no
    delayed message or crash is still to come: the program only reacts
    to messages, so a lost one would otherwise leave it waiting out the
    round budget.
    """
    if backend == "dense":
        from ..sim.dense import dense_bfs_tree, plan_bfs, require_numpy

        require_numpy()
    elif backend != "reference":
        raise ValueError(f"unknown backend {backend!r}")
    if faults is None and current_observation() is None:
        if backend == "dense":
            plan = plan_bfs(graph, root, word_limit)
            if plan is not None:
                return dense_bfs_tree(graph, root, plan)
        else:
            direct = _direct_bfs(graph, root, word_limit)
            if direct is not None:
                return direct
    network = Network(graph, word_limit=word_limit, faults=faults)
    network.run(
        lambda ctx: BFSTreeProgram(ctx, root), stop_when_quiet=faults is not None
    )
    parents = network.output_field("parent")
    depths = network.output_field("depth")
    return parents, depths, network


def _direct_bfs(graph, root: Any, word_limit: int):
    """:class:`BFSTreeProgram`'s fault-free run without simulating it.

    A node at depth d adopts the min-``str`` neighbour one level up and
    sends its bundle (ACCEPT, REJECTs, WAVEs: one per neighbour) at
    round d, and REJECTs its same-level neighbours' waves at d + 1.  It
    echoes at E(v) = max(base(v), max over children of E + 1), where
    base(v) is d + 2 while it awaits wave responses, else d + 1, and 2
    at the root (0 with no neighbours).  The root's MFIN reaches depth
    d at E(root) + d, so the run ends at E(root) + M.

    Returns None, so the engine runs, when ``word_limit`` is below the
    protocol's 2-word messages.  When ``root`` is not in the graph, or
    the graph is disconnected, some node never hears a WAVE and the
    engine would step out its round budget: this raises its
    :class:`RoundLimitExceeded` at once instead.
    """
    nodes = sorted(graph.nodes)  # raises as Network() would
    neighbors = {v: tuple(graph.neighbors(v)) for v in nodes}
    if root not in neighbors:
        raise RoundLimitExceeded(DEFAULT_MAX_ROUNDS)
    if word_limit < 2:
        return None
    depth = {root: 0}
    levels = [[root]]
    while True:
        level = []
        for v in levels[-1]:
            for u in neighbors[v]:
                if u not in depth:
                    depth[u] = len(levels)
                    level.append(u)
        if not level:
            break
        levels.append(level)
    if len(depth) < len(nodes):
        raise RoundLimitExceeded(DEFAULT_MAX_ROUNDS)
    parent: Dict[Any, Any] = {}
    children: Dict[Any, List[Any]] = {v: [] for v in nodes}
    echo: Dict[Any, int] = {}  # base(v) until the fold below
    counts = [0] * (len(levels) + 2)
    words = 0
    for v in nodes:
        d = depth[v]
        up = [u for u in neighbors[v] if depth[u] == d - 1]
        same = sum(1 for u in neighbors[v] if depth[u] == d)
        waves = len(neighbors[v]) - len(up)
        if up:
            parent[v] = min(up, key=str)
            children[parent[v]].append(v)
            echo[v] = d + 2 if waves else d + 1
        else:
            parent[v] = None
            echo[v] = 2 if waves else 0
        counts[d] += len(neighbors[v])  # the adoption bundle (the root's WAVEs)
        counts[d + 1] += same  # late REJECTs
        words += 2 * waves + len(up) + same
    for level in reversed(levels):
        for v in level:
            p = parent[v]
            if p is not None and echo[v] + 1 > echo[p]:
                echo[p] = echo[v] + 1
    e_root = echo[root]
    tree_depth = len(levels) - 1
    rounds = e_root + tree_depth
    counts += [0] * (rounds + 1 - len(counts))
    for v in nodes:
        if v != root:
            counts[echo[v]] += 1  # ECHO
        counts[e_root + depth[v]] += len(children[v])  # MFIN
    n = len(nodes)
    words += 4 * (n - 1)  # ECHO and MFIN, 2 words each
    metrics = halted_metrics(rounds, counts, words, 2 if n > 1 else 0, n)

    def outputs():
        return {
            v: {
                "parent": parent[v],
                "depth": depth[v],
                "children": tuple(sorted(children[v], key=str)),
                "tree_depth": tree_depth,
                "t1": rounds + 1,
            }
            for v in nodes
        }

    return parent, {v: depth[v] for v in nodes}, RunRecord(metrics, outputs)
