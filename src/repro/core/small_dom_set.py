"""Procedure ``Small-Dom-Set`` — the Lemma 3.2 contract.

The paper uses the `[GKP]` procedure as a black box with this contract
(Lemma 3.2): on an n-vertex tree, n >= 2, compute a dominating set ``D``
with ``|D| <= ceil(n / 2)`` in ``O(log* n)`` rounds with O(log n)-bit
messages, such that every node of ``D`` has a neighbour outside ``D``.
The `[GKP]` internals are not reproduced in this paper, so we supply a
contract-equivalent construction (DESIGN.md §2):

1. 3-colour the rooted tree (Cole–Vishkin + shift-down, O(log* n));
2. compute a maximal matching (three colour-phases, O(1) extra);
3. every unmatched node *attaches* to a matched neighbour (one exists,
   by maximality), which thereby becomes a dominator; matched pairs
   where neither endpoint attracted an attachment elect their
   smaller-id endpoint.

The output clusters are stars centred at dominators, every cluster has
at least two nodes, and exactly one dominator per cluster gives
``|D| <= floor(n / 2)`` — so the construction also satisfies the
*balanced* property (c) of Definition 3.1 directly (the paper obtains
it by repairing singletons, see :mod:`repro.core.balanced_dom`).

Isolated nodes (possible when the procedure runs on a forest) become
singleton self-dominating clusters flagged ``singleton``; callers that
require property (c) must not feed isolated nodes (the partition
algorithms of §3.2 remove single-node trees before invoking this).

:func:`direct_small_dom_set` computes the program's outputs and round
count without simulating its messages; the partition drivers take it
when unobserved.  :class:`SmallDomSetProgram` on the engine stays the
reference (tests/differential/) and the only route emitting events.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Partition
from ..sim.errors import RoundLimitExceeded
from ..sim.network import DEFAULT_MAX_ROUNDS, Network
from ..symmetry.cole_vishkin import cv_step, cv_step_root
from ..symmetry.log_star import cv_iterations
from ..symmetry.matching import TreeMatchingProgram
from ..symmetry.three_coloring import PALETTE

#: Rounds of the script after the Cole–Vishkin steps: 1 drain round,
#: 2 per shift-down phase, 3 per matching phase, 2 for the star partition.
_ROUNDS_AFTER_CV = 1 + 3 * 2 + 3 * 3 + 2


class SmallDomSetProgram(TreeMatchingProgram):
    """Distributed star-partition dominating set on a rooted forest.

    Outputs: ``in_dominating_set`` (bool), ``dominator`` (cluster
    centre; self for dominators), ``singleton`` (True only for isolated
    nodes).
    """

    def script(self):
        yield from self.run_three_coloring()
        yield from self.run_matching()
        yield from self.run_star_partition()
        self.output["color"] = self.color
        self.output["partner"] = self.partner
        self.output["in_dominating_set"] = self.in_dominating_set
        self.output["dominator"] = self.dominator
        self.output["singleton"] = self.singleton

    def run_star_partition(self):
        self.in_dominating_set = False
        self.dominator: Optional[Any] = None
        self.singleton = False

        if not self.neighbors:
            # Isolated node: self-dominating singleton (callers avoid this).
            self.in_dominating_set = True
            self.dominator = self.node
            self.singleton = True
            yield
            yield
            return

        # Slot A: unmatched nodes attach to their smallest matched
        # neighbour (every neighbour is matched, by maximality).
        attach_target: Optional[Any] = None
        if self.partner is None:
            candidates = sorted(
                nb for nb in self.neighbors if nb in self.known_matched
            )
            if not candidates:  # pragma: no cover - maximality guarantees
                raise RuntimeError(
                    f"unmatched node {self.node} has no matched neighbour"
                )
            attach_target = candidates[0]
            self.send(attach_target, "ATTACH")
            self.dominator = attach_target
        inbox = yield

        # Slot B: matched nodes tell their partner whether they
        # attracted attachments (and hence must be a dominator).
        got_attachment = any(e.tag() == "ATTACH" for e in inbox)
        if self.partner is not None:
            self.send(self.partner, "PAIR", got_attachment)
        inbox = yield

        # Slot C: resolve roles within each matched pair.
        if self.partner is not None:
            partner_got = False
            for envelope in inbox:
                if envelope.tag() == "PAIR" and envelope.sender == self.partner:
                    partner_got = envelope.payload[1]
            if got_attachment:
                self.in_dominating_set = True
                self.dominator = self.node
            elif partner_got:
                self.dominator = self.partner
            else:
                center = min(self.node, self.partner)
                self.in_dominating_set = center == self.node
                self.dominator = center


def direct_small_dom_set(
    neighbors: Dict[Any, Collection[Any]],
    parent_of: Dict[Any, Optional[Any]],
    id_bound: int,
) -> Optional[Tuple[Dict[Any, Any], Dict[Any, bool], int]]:
    """:class:`SmallDomSetProgram`'s run, computed without the engine.

    ``neighbors`` maps every node to its neighbours (the topology the
    program would run on).  Returns the ``dominator`` and
    ``in_dominating_set`` outputs, in ascending node order as a
    :class:`~repro.sim.virtual.ContractedGraph` lists them, and the
    round count at which every node halts.  Returns None when a node's
    parent is not one of its neighbours: the engine's run fails there,
    and the caller runs it to raise that error.  Bad ids raise the
    program's ``ValueError``.
    """
    nodes = sorted(neighbors)
    if not nodes:
        raise RoundLimitExceeded(DEFAULT_MAX_ROUNDS)  # nothing ever halts
    bound = max(len(nodes), id_bound or 1, 1)
    for v in nodes:
        if not isinstance(v, int) or v < 0:
            raise ValueError("colouring requires non-negative integer node ids")
        if v >= bound:
            raise ValueError(
                f"node id {v} exceeds the declared id bound {bound}; "
                "pass id_bound"
            )
    parent = {v: parent_of.get(v) for v in nodes}
    if any(p is not None and p not in neighbors[v] for v, p in parent.items()):
        return None
    steps = cv_iterations(bound)
    # Six-colouring: each step reads the parent's colour of the step before.
    color = dict(zip(nodes, nodes))
    for _step in range(steps):
        color = {
            v: cv_step_root(c) if parent[v] is None else cv_step(c, color[parent[v]])
            for v, c in color.items()
        }
    # Shift-down: a non-root takes its parent's colour, so a node's
    # children all hold its old colour; the target class then recolours.
    has_children = {p for p in parent.values() if p is not None}
    for target in (5, 4, 3):
        shifted = {
            v: min(x for x in PALETTE if x != c) if parent[v] is None
            else color[parent[v]]
            for v, c in color.items()
        }
        recolored = dict(shifted)
        for v, c in shifted.items():
            if c == target:
                used = {color[v]} if v in has_children else set()
                if parent[v] is not None:
                    used.add(shifted[parent[v]])
                recolored[v] = min(x for x in PALETTE if x not in used)
        color = recolored
    # Matching: colour-c nodes whose parent is unmatched propose; each
    # parent accepts its smallest proposer.  Colours are proper, so no
    # node both proposes and accepts in one phase.
    partner: Dict[Any, Any] = {}
    for c in PALETTE:
        accepted: Dict[Any, Any] = {}
        for v in nodes:
            p = parent[v]
            if color[v] == c and p is not None and v not in partner and p not in partner:
                accepted.setdefault(p, v)
        for p, v in accepted.items():
            partner[p] = v
            partner[v] = p
    # Star partition: unmatched nodes attach to their smallest matched
    # neighbour; a matched pair is led by an endpoint that drew an
    # attachment, else by its smaller id.
    attach: Dict[Any, Any] = {}
    for v in nodes:
        if neighbors[v] and v not in partner:
            candidates = [u for u in neighbors[v] if u in partner]
            if not candidates:  # pragma: no cover - maximality guarantees
                raise RuntimeError(f"unmatched node {v} has no matched neighbour")
            attach[v] = min(candidates)
    attracted = set(attach.values())
    dominator: Dict[Any, Any] = {}
    in_dominating_set: Dict[Any, bool] = {}
    for v in nodes:
        if not neighbors[v]:
            center = v
        elif v in attach:
            center = attach[v]
        elif v in attracted:
            center = v
        elif partner[v] in attracted:
            center = partner[v]
        else:
            center = min(v, partner[v])
        dominator[v] = center
        in_dominating_set[v] = center == v
    return dominator, in_dominating_set, steps + _ROUNDS_AFTER_CV


def small_dom_set(
    graph: Graph,
    parent_of: Dict[Any, Optional[Any]],
    word_limit: int = 8,
) -> Tuple[Set[Any], Partition, "Network"]:
    """Run ``Small-Dom-Set`` on a rooted forest.

    Returns (dominating set, star partition, network).
    """
    from ..symmetry.cole_vishkin import derive_id_bound

    network = Network(graph, word_limit=word_limit)
    bound = derive_id_bound(graph)
    network.run(
        lambda ctx: SmallDomSetProgram(ctx, parent_of, id_bound=bound)
    )
    flags = network.output_field("in_dominating_set")
    dominators = {v for v, flag in flags.items() if flag}
    partition = Partition.from_center_map(network.output_field("dominator"))
    return dominators, partition, network
