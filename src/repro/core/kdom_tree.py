"""Distributed minimum k-dominating set on a tree, plus the induced
nearest-dominator partition.

This is the library's *correct-by-construction* cluster subroutine (see
the reproduction note R1 in :mod:`repro.core.existence`): a single
convergecast evaluates the classic tree k-domination DP, so the output
is an exact minimum — hence at most ``floor(n / (k + 1))`` for
``n >= k + 1`` by Meir–Moon, which is precisely the bound Lemma 2.1
needs — and is always k-dominating.  A k-round multi-source wave then
assigns every node its nearest dominator, yielding the partition of
§1.2 with ``Rad(P) <= k`` (Corollary 3.9(b)).

Round complexity: ``O(depth(T) + k)`` — the same budget the paper
spends running ``DiamDOM`` inside a cluster.

Message contents are ``O(log k)`` bits: the DP state is a pair of
distances capped at ``k + 1``.

FastDOM_T runs both programs inside every DOM_Partition cluster.
Unobserved, it takes :func:`direct_cluster_kdom` instead, which applies
the DP and the wave to per-node state and tallies each message at the
round and size the programs send it.  The programs on the engine stay
the reference (tests/differential/) and the only route emitting events.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Cluster, Partition
from ..graphs.validation import require_acyclic_parents
from ..sim.errors import RoundLimitExceeded, UnserializablePayload
from ..sim.metrics import RunMetrics
from ..sim.model import DEFAULT_WORD_LIMIT, Envelope, MessageStats, measure_words
from ..sim.network import DEFAULT_MAX_ROUNDS, Network
from ..sim.program import Context, NodeProgram, ScriptedProgram
from ..sim.runner import StagedRun
from .existence import _require_k

#: Sentinel for "no uncovered node in the subtree".
NO_UNCOVERED = -1


class TreeKDomProgram(NodeProgram):
    """Bottom-up DP convergecast; marks ``in_dominating_set``.

    Per-node state sent to the parent: ``(uncov, cov)`` where ``uncov``
    is the distance to the farthest uncovered node in the subtree
    (``-1`` for none) and ``cov`` the distance to the nearest subtree
    dominator (capped at ``k + 1`` = "unusable").
    """

    # Message-driven convergecast: a node fires exactly once, when the
    # last child DP state arrives (leaves fire at start).
    TICK_EVERY_ROUND = False

    def __init__(
        self,
        ctx: Context,
        root: Any,
        parent_of: Dict[Any, Optional[Any]],
        k: int,
    ):
        super().__init__(ctx)
        _require_k(k)
        self.k = k
        self.is_root = ctx.node == root
        self.parent = parent_of.get(ctx.node)
        self.children = tuple(
            nb for nb in ctx.neighbors if parent_of.get(nb) == ctx.node
        )
        self._child_states: List[Tuple[int, int]] = []
        self.in_dominating_set = False

    def _maybe_fire(self) -> None:
        if len(self._child_states) < len(self.children):
            return
        cap = self.k + 1
        uncov_candidates = [0] + [
            u + 1 for u, _c in self._child_states if u != NO_UNCOVERED
        ]
        a = max(uncov_candidates)
        cov_candidates = [min(c + 1, cap) for _u, c in self._child_states]
        b = min(cov_candidates) if cov_candidates else cap
        if a + b <= self.k:
            state = (NO_UNCOVERED, b)
        elif a >= self.k:
            self.in_dominating_set = True
            state = (NO_UNCOVERED, 0)
        else:
            state = (a, b)
        if self.is_root:
            if state[0] != NO_UNCOVERED:
                self.in_dominating_set = True
        else:
            self.send(self.parent, "DP", state[0], state[1])
        self.output["in_dominating_set"] = self.in_dominating_set
        self.halt()

    def on_start(self) -> None:
        self._maybe_fire()

    def on_round(self, inbox: List[Envelope]) -> None:
        for envelope in inbox:
            if envelope.tag() == "DP":
                self._child_states.append(
                    (envelope.payload[1], envelope.payload[2])
                )
        self._maybe_fire()


class NearestDominatorProgram(ScriptedProgram):
    """k-round multi-source wave assigning each node its closest
    dominator (ties to the smallest id), the partition rule of §1.2.

    Outputs: ``dominator`` (or ``None`` if out of range — impossible for
    a genuinely k-dominating input) and ``dominator_distance``.
    """

    # Event-driven: the wave acts only on DOM arrivals; the one
    # spontaneous action is finishing at distance k, booked as a wakeup
    # so uncovered stretches of the wait cost no invocations.
    TICK_EVERY_ROUND = False

    def __init__(self, ctx: Context, is_dominator: bool, k: int):
        super().__init__(ctx)
        _require_k(k)
        self.k = k
        self.is_dominator = is_dominator
        self.dominator: Optional[Any] = None
        self.dominator_distance: Optional[int] = None

    def script(self):
        start = self.round
        if self.is_dominator:
            self.dominator = self.node
            self.dominator_distance = 0
            if self.k > 0:
                self.broadcast("DOM", self.node, 1)
        if self.k > 0:
            # Everyone resumes at distance k to write outputs and halt,
            # whether or not the wave ever reached them.
            self.request_wakeup(self.k)
        while self.round - start < self.k:
            inbox = yield
            distance = self.round - start
            if self.dominator is None:
                offers = sorted(
                    envelope.payload[1]
                    for envelope in inbox
                    if envelope.tag() == "DOM"
                )
                if offers:
                    self.dominator = offers[0]
                    self.dominator_distance = distance
                    if distance < self.k:
                        self.broadcast("DOM", self.dominator, distance + 1)
        self.output["dominator"] = self.dominator
        self.output["dominator_distance"] = self.dominator_distance


def direct_cluster_kdom(
    tree: Graph,
    t_parent: Dict[Any, Optional[Any]],
    clusters: Iterable[Cluster],
    k: int,
) -> Optional[
    Tuple[List[Set[Any]], RunMetrics, List[Dict[Any, Optional[Any]]], RunMetrics]
]:
    """:class:`TreeKDomProgram`, then :class:`NearestDominatorProgram`,
    in every cluster, computed without the engine.

    Each cluster's programs would run on the subgraph of ``tree``
    induced by its members, rooted at the one member whose ``t_parent``
    lies outside it.  Returns, per cluster in order, the DP's dominator
    set and the wave's ``dominator`` map, both built in ascending node
    order as the engine lists outputs; and per stage the
    :meth:`RunMetrics.merge` of the cluster runs.  Returns None when a
    cluster's in-cluster parent map is not a tree over ``tree``'s edges
    rooted at one member, or a dominator's id does not fit a ``DOM``
    message: the engine's run fails there, and the caller runs it to
    raise that error.
    """
    _require_k(k)
    cap = k + 1
    dp_runs: List[RunMetrics] = []
    wave_runs: List[RunMetrics] = []
    cluster_sets: List[Set[Any]] = []
    assignments: List[Dict[Any, Optional[Any]]] = []
    for cluster in clusters:
        members = cluster.members
        nodes = sorted(members)
        parent: Dict[Any, Any] = {}
        children: Dict[Any, List[Any]] = {v: [] for v in nodes}
        order = []  # the root, then breadth-first over children
        for v in nodes:
            p = t_parent.get(v)
            if p in members:
                if not tree.has_edge(v, p):
                    return None
                parent[v] = p
                children[p].append(v)
            else:
                order.append(v)
        if len(order) != 1:
            return None
        for v in order:
            order.extend(children[v])
        if len(order) != len(nodes):
            return None  # a parent cycle the root never reaches

        # DP: a node fires at the round equal to its height, once every
        # child's (uncov, cov) state has arrived, and sends its own up.
        uncov = dict.fromkeys(nodes, 0)
        cov = dict.fromkeys(nodes, cap)
        height = dict.fromkeys(nodes, 0)
        flagged = dict.fromkeys(nodes, False)
        for v in reversed(order):
            a, b = uncov[v], cov[v]
            if a + b <= k:
                a = NO_UNCOVERED
            elif a >= k:
                flagged[v] = True
                a, b = NO_UNCOVERED, 0
            p = parent.get(v)
            if p is None:
                flagged[v] = flagged[v] or a != NO_UNCOVERED
                continue
            if a != NO_UNCOVERED and a + 1 > uncov[p]:
                uncov[p] = a + 1
            if b + 1 < cov[p]:
                cov[p] = b + 1
            if height[v] + 1 > height[p]:
                height[p] = height[v] + 1
        sends: Dict[int, int] = {}
        for v in order[1:]:
            sends[height[v]] = sends.get(height[v], 0) + 1
        dp_traffic = MessageStats(
            len(nodes) - 1,
            3 * (len(nodes) - 1),
            3 if len(nodes) > 1 else 0,
            {r: sends[r] for r in sorted(sends)},
        )
        dp_runs.append(
            RunMetrics(height[order[0]], dp_traffic, True, len(nodes))
        )
        dominators = {v for v in nodes if flagged[v]}
        cluster_sets.append(dominators)

        # Wave: a node first reached at distance d < k adopts the
        # smallest dominator its distance-(d-1) neighbours offer, then
        # offers it to every neighbour at round d; all halt at round k.
        words = {}
        for d in dominators:
            try:
                words[d] = measure_words(("DOM", d, 1))
            except UnserializablePayload:
                return None
            if words[d] > DEFAULT_WORD_LIMIT:
                return None
        neighbors = {v: [u for u in tree.neighbors(v) if u in members] for v in nodes}
        dominator = {d: d for d in dominators}
        frontier = list(dominators)
        wave_traffic = MessageStats()
        for distance in range(k):
            offers: Dict[Any, Any] = {}
            sent = 0
            for u in frontier:
                offer, targets = dominator[u], neighbors[u]
                if targets:
                    sent += len(targets)
                    wave_traffic.total_words += len(targets) * words[offer]
                    wave_traffic.max_words = max(wave_traffic.max_words, words[offer])
                for x in targets:
                    if x not in dominator and (x not in offers or offer < offers[x]):
                        offers[x] = offer
            if not sent:
                break
            wave_traffic.messages += sent
            wave_traffic.per_round[distance] = sent
            dominator.update(offers)
            frontier = list(offers)
        wave_runs.append(RunMetrics(k, wave_traffic, True, len(nodes)))
        assignments.append({v: dominator.get(v) for v in nodes})
    dp_metrics = RunMetrics.merge(dp_runs)
    if max(dp_metrics.rounds, k) > DEFAULT_MAX_ROUNDS:
        raise RoundLimitExceeded(DEFAULT_MAX_ROUNDS)
    return cluster_sets, dp_metrics, assignments, RunMetrics.merge(wave_runs)


def tree_kdominating_set(
    graph: Graph,
    root: Any,
    parent_of: Dict[Any, Optional[Any]],
    k: int,
    staged: Optional[StagedRun] = None,
    backend: str = "reference",
) -> Tuple[Set[Any], Partition, StagedRun]:
    """Run the DP + partition wave on a tree with known parent pointers.

    Returns (dominating set, nearest-dominator partition, staging info).

    ``backend="dense"`` evaluates the DP as per-height scatter-reduces
    and the wave as k scatter-min label propagations, with the whole
    tree as one cluster — same outputs, stage rounds and metrics.  It
    serves unobserved runs: under an active observation, and for
    parent maps outside the dense contract, the reference engine runs,
    so traces hold engine events and malformed inputs fail in the
    engine's own way.  A parent map with a cycle raises ``ValueError``
    on every route.
    """
    staged = staged if staged is not None else StagedRun()
    if backend == "dense":
        from ..obs.session import current_observation
        from ..sim.dense import require_numpy
        from ..sim.dense.forest import plan_tree_kdom

        require_numpy()
        _require_k(k)
        if current_observation() is None:
            parent = plan_tree_kdom(graph, root, parent_of)
            if parent is not None:
                return _tree_kdominating_set_dense(graph, parent, k, staged)
    elif backend != "reference":
        raise ValueError(f"unknown backend {backend!r}")
    require_acyclic_parents(parent_of)

    dp_network = Network(graph)
    dp_network.run(lambda ctx: TreeKDomProgram(ctx, root, parent_of, k))
    staged.record("kdom-dp", dp_network.metrics)
    flags = dp_network.output_field("in_dominating_set")
    dominators = {v for v, flag in flags.items() if flag}

    wave_network = Network(graph)
    wave_network.run(lambda ctx: NearestDominatorProgram(ctx, ctx.node in dominators, k))
    staged.record("kdom-partition", wave_network.metrics)
    assignment = wave_network.output_field("dominator")
    missing = [v for v, d in assignment.items() if d is None]
    if missing:
        raise RuntimeError(
            f"nodes {missing!r} found no dominator within {k} hops; "
            f"the dominating set is not k-dominating"
        )
    partition = Partition.from_center_map(assignment)
    return dominators, partition, staged


def _tree_kdominating_set_dense(
    graph: Graph, parent, k: int, staged: StagedRun
) -> Tuple[Set[Any], Partition, StagedRun]:
    from ..sim.dense.core import np
    from ..sim.dense.csr import csr_adjacency
    from ..sim.dense.forest import (
        dense_cluster_domination,
        nearest_dominator_wave,
        partition_from_labels,
    )

    csr = csr_adjacency(graph)
    domination = dense_cluster_domination(csr, parent, k)
    if domination is None:
        raise ValueError("parent map contains a cycle")
    in_dom, dp_metrics = domination
    staged.record("kdom-dp", dp_metrics)
    nodes = csr.nodes
    dominators = {nodes[row] for row in np.flatnonzero(in_dom).tolist()}

    owner = np.zeros(csr.n, dtype=np.int64)  # one cluster: the tree
    label, _dist, wave_metrics = nearest_dominator_wave(csr, owner, in_dom, k)
    staged.record("kdom-partition", wave_metrics)
    if (label < 0).any():  # pragma: no cover - the DP is exactly k-dominating
        missing = [nodes[r] for r in np.flatnonzero(label < 0).tolist()]
        raise RuntimeError(
            f"nodes {missing!r} found no dominator within {k} hops; "
            f"the dominating set is not k-dominating"
        )
    return dominators, partition_from_labels(csr, label), staged
