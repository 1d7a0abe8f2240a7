"""Procedure ``SimpleMST`` (§4.1–4.4): a ``(k + 1, n)`` spanning forest
of MST fragments in ``O(k)`` rounds.

A controlled Gallager–Humblet–Spira process: nodes start as singleton
fragments; in each synchronous phase ``i`` (``i = 1 .. ceil(log2(k+1))``)
every fragment whose rooted depth is at most ``2^i`` is *active* and
merges along its minimum-weight outgoing edge; deeper fragments sit the
phase out (but still accept merges onto them).  After the last phase
every fragment has at least ``k + 1`` nodes (active fragments at least
double per phase; a halted fragment already has more than ``2^i``
nodes), every fragment tree is a subtree of the MST (cut rule, distinct
weights), and the total time is ``sum_i O(2^i) = O(k)``.

Phase schedule (all nodes share it, derived from ``k``), with
``L = 2^i``; one slot = one round:

=========  =======================================================
slots      action
=========  =======================================================
0..L       probe: root floods its id with depth labels to depth L
L+1..2L+1  echo: depth-d nodes report ``too_deep`` at slot 2L+1-d
2L+2..3L+1 root broadcasts ACTIVE if depth <= L
3L+1       every active node sends its fragment id over all edges
3L+2       edges classified internal/outgoing; local MOE chosen
3L+2..4L+2 convergecast: depth-d nodes upcast subtree MOE at
           slot 4L+2-d, discarding all but the lightest (the paper's
           "discarded once a lower weight edge is known")
4L+2..5L+2 rootship transfer: XFR token walks to the MOE endpoint,
           reversing parent pointers en route
5L+2       the new root sends CONNECT over the MOE
5L+3       merges resolve: reciprocal CONNECT -> higher id wins the
           combined root; otherwise the sender is absorbed
=========  =======================================================

Phase length ``5 * 2^i + 3`` (the paper states ``5 * 2^i + 2``; one
slot of difference from making the id-exchange its own slot —
reproduction note R4; the O(k) total of Lemma 4.1 is unaffected).

:func:`simple_mst_forest` skips the simulation when unobserved:
:func:`_direct_forest` applies this schedule phase by phase to per-node
state, tallies each message at the round and size the program sends it,
and returns outputs and metrics as a :class:`~repro.sim.runner.RunRecord`
without building a :class:`~repro.sim.network.Network`.
:class:`SimpleMSTProgram` on the engine stays the reference
(tests/differential/) and the only route emitting events.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..obs.session import current_observation
from ..sim.errors import RoundLimitExceeded, UnserializablePayload
from ..sim.metrics import RunMetrics
from ..sim.model import Envelope, MessageStats, measure_words
from ..sim.network import DEFAULT_MAX_ROUNDS, Network
from ..sim.program import Context, ScriptedProgram
from ..sim.runner import RunRecord
from .partition_common import log2_phase_count

#: Sentinel id for "the minimum outgoing edge lives at this very node".
_SELF = "self"


class SimpleMSTProgram(ScriptedProgram):
    """One node of Procedure ``SimpleMST``.

    Outputs: ``parent`` (fragment-tree parent or None), ``children``,
    ``is_root``, ``fragment_id`` (possibly stale in halted fragments —
    faithful to §4.2's discussion), ``tree_edges`` (incident MST edges).
    """

    # Event-driven scheduling: the phase schedule is pure slot
    # arithmetic, so the slot of every spontaneous action (one taken on
    # an empty inbox) is computable the moment the state it depends on
    # is learned — and that state always arrives in a message, while the
    # node is awake.  ``run_phase`` derives the current slot from
    # ``self.round`` instead of counting yields, and each handler books
    # a wakeup for the next slot at which this node must act.
    TICK_EVERY_ROUND = False

    def __init__(self, ctx: Context, k: int):
        super().__init__(ctx)
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self.phases = log2_phase_count(k)
        self.parent: Optional[Any] = None
        self.children: Set[Any] = set()
        self.is_root = True
        self.fragment_id: Any = ctx.node

    # ------------------------------------------------------------------
    def script(self):
        for i in range(1, self.phases + 1):
            yield from self.run_phase(2 ** i)
        self.output["parent"] = self.parent
        self.output["children"] = tuple(sorted(self.children, key=str))
        self.output["is_root"] = self.is_root
        self.output["fragment_id"] = self.fragment_id
        tree_edges = set(self.children)
        if self.parent is not None:
            tree_edges.add(self.parent)
        self.output["tree_edges"] = tuple(sorted(tree_edges, key=str))

    # ------------------------------------------------------------------
    def run_phase(self, L: int):
        # Per-phase state.
        self.depth: Optional[int] = None
        self.active = False
        self._too_deep = False
        self._echo_too_deep = False
        self._best_weight: Optional[float] = None
        self._best_source: Optional[Any] = None  # child id or _SELF
        self._own_edge_target: Optional[Any] = None
        self._is_vstar = False
        self._sent_connect_to: Optional[Any] = None
        self._got_connect_from: Set[Any] = set()

        # Slot bookkeeping for event-driven wakeups: slot = round offset
        # from the start of the phase, exactly the yield count of the
        # original lockstep loop.
        self._L = L
        self._phase_start = self.round
        end = 5 * L + 3
        # Children are stable until the transfer/merge slots (>= 4L+2),
        # well after the last PRB/ACT forward; sort them once per phase.
        self._kids = sorted(self.children, key=str)

        # Slot 0: roots launch the probe.
        if self.is_root:
            self.depth = 0
            self.fragment_id = self.node
            if L >= 1:
                for child in self._kids:
                    self.send(child, "PRB", self.node, 1)
            self._wake_at(2 * L + 1)  # activity verdict
        # Every node resumes at the phase boundary: merge resolution
        # runs there and the next phase's slot 0 follows immediately.
        self._wake_at(end)
        while True:
            inbox = yield
            slot = self.round - self._phase_start
            self._phase_slot(slot, L, inbox)
            if slot >= end:
                break

    def _wake_at(self, slot: int) -> None:
        """Book an invocation at phase slot ``slot`` (no-op if current)."""
        delay = self._phase_start + slot - self.round
        if delay >= 1:
            self.request_wakeup(delay)

    # ------------------------------------------------------------------
    def _phase_slot(self, slot: int, L: int, inbox: List[Envelope]) -> None:
        for envelope in inbox:
            tag = envelope.tag()
            if tag == "PRB":
                self._handle_probe(envelope, L)
            elif tag == "ECH":
                if envelope.payload[1]:
                    self._echo_too_deep = True
            elif tag == "ACT":
                self._handle_active(envelope)
            elif tag == "MOE":
                self._handle_moe(envelope)
            elif tag == "XFR":
                self._handle_transfer(envelope)
            elif tag == "CON":
                self._got_connect_from.add(envelope.sender)
            # FID handled collectively below.

        # Echo schedule: depth-d nodes report at slot 2L + 1 - d.
        if (
            self.depth is not None
            and not self.is_root
            and slot == 2 * L + 1 - self.depth
        ):
            self.send(self.parent, "ECH", self._too_deep or self._echo_too_deep)
        # Root verdict at slot 2L + 1.
        if self.is_root and slot == 2 * L + 1:
            self.active = not (self._too_deep or self._echo_too_deep)
            if self.active:
                for child in self._kids:
                    self.send(child, "ACT")
                self._wake_at(3 * L + 1)
        # Fragment-id exchange at slot 3L + 1.
        if slot == 3 * L + 1 and self.active:
            for neighbor in self.neighbors:
                self.send(neighbor, "FID", self.fragment_id)
            # Classification must run next slot even if every neighbour
            # is inactive and sends no FID.
            self._wake_at(3 * L + 2)
        # Edge classification at slot 3L + 2.
        if slot == 3 * L + 2 and self.active:
            self._classify_edges(inbox)
            # Own convergecast / transfer-launch slot; leaves (and the
            # root of a singleton fragment) hear no MOE beforehand.
            if self.depth is not None:
                self._wake_at(4 * L + 2 - self.depth)
        # Convergecast schedule: depth-d nodes upcast at slot 4L + 2 - d.
        if (
            self.active
            and self.depth is not None
            and slot == 4 * L + 2 - self.depth
        ):
            if self.is_root:
                self._launch_transfer()
            else:
                self.send(self.parent, "MOE", self._best_weight)
        # CONNECT at slot 5L + 2.
        if slot == 5 * L + 2 and self._is_vstar and self._own_edge_target is not None:
            self._sent_connect_to = self._own_edge_target
            self.send(self._own_edge_target, "CON", self.node)
        # Merge resolution at slot 5L + 3.
        if slot == 5 * L + 3:
            self._resolve_merges()

    # -- probe / activity ------------------------------------------------
    def _handle_probe(self, envelope: Envelope, L: int) -> None:
        _tag, root_id, depth = envelope.payload
        self.depth = depth
        self.fragment_id = root_id
        if depth < L:
            for child in self._kids:
                self.send(child, "PRB", root_id, depth + 1)
        elif self.children:
            # The fragment continues below the probe horizon.
            self._too_deep = True
        # Echo slot: leaves (and horizon nodes) hear nothing in between.
        self._wake_at(2 * L + 1 - depth)

    def _handle_active(self, envelope: Envelope) -> None:
        self.active = True
        for child in self._kids:
            self.send(child, "ACT")
        self._wake_at(3 * self._L + 1)

    # -- minimum outgoing edge ---------------------------------------------
    def _classify_edges(self, inbox: List[Envelope]) -> None:
        same_fragment = {
            envelope.sender
            for envelope in inbox
            if envelope.tag() == "FID" and envelope.payload[1] == self.fragment_id
        }
        candidates = [
            (self.ctx.weight(nb), nb)
            for nb in self.neighbors
            if nb not in same_fragment
        ]
        if candidates:
            weight, target = min(candidates)
            self._best_weight = weight
            self._best_source = _SELF
            self._own_edge_target = target

    def _handle_moe(self, envelope: Envelope) -> None:
        weight = envelope.payload[1]
        if weight is None:
            return
        if self._best_weight is None or weight < self._best_weight:
            self._best_weight = weight
            self._best_source = envelope.sender

    # -- rootship transfer ----------------------------------------------------
    def _launch_transfer(self) -> None:
        if self._best_weight is None:
            return  # no outgoing edge anywhere: the fragment spans G
        if self._best_source == _SELF:
            self._is_vstar = True
            self._wake_at(5 * self._L + 2)  # CONNECT slot
            return
        self._pass_rootship(self._best_source)

    def _handle_transfer(self, envelope: Envelope) -> None:
        old_parent = envelope.sender
        self.children.add(old_parent)
        self.parent = None
        if self._best_source == _SELF or self._best_source is None:
            self._is_vstar = True
            self.is_root = True
            self._wake_at(5 * self._L + 2)  # CONNECT slot
        else:
            self._pass_rootship(self._best_source)

    def _pass_rootship(self, child: Any) -> None:
        self.send(child, "XFR")
        self.children.discard(child)
        self.parent = child
        self.is_root = False

    # -- merging ----------------------------------------------------------
    def _resolve_merges(self) -> None:
        for sender in sorted(self._got_connect_from, key=str):
            if self._sent_connect_to == sender:
                # Reciprocal CONNECT over the shared minimum edge: the
                # higher id becomes the root of the combined fragment.
                if self.node > sender:
                    self.children.add(sender)
                else:
                    self.parent = sender
                    self.is_root = False
            else:
                # Another fragment merged onto us here.
                self.children.add(sender)
        if (
            self._sent_connect_to is not None
            and self._sent_connect_to not in self._got_connect_from
        ):
            # One-sided CONNECT: we are absorbed by the other fragment.
            self.parent = self._sent_connect_to
            self.is_root = False


def simple_mst_forest(
    graph: Graph, k: int, word_limit: int = 8
) -> Tuple[Dict[Any, Optional[Any]], List[Set[Any]], Any]:
    """Run Procedure ``SimpleMST`` on a weighted graph.

    Returns (fragment parent map, list of fragment node sets, run): the
    run is the :class:`Network`, or off the engine a
    :class:`~repro.sim.runner.RunRecord` with the same outputs and
    metrics.
    """
    run = _direct_forest(graph, k, word_limit)
    if run is None:
        run = Network(graph, word_limit=word_limit)
        run.run(lambda ctx: SimpleMSTProgram(ctx, k))
    parents = run.output_field("parent")
    fragments = _components_from_parents(parents)
    return parents, fragments, run


def _direct_forest(graph: Graph, k: int, word_limit: int) -> Optional[RunRecord]:
    """Compute :class:`SimpleMSTProgram`'s run without simulating it.

    Returns None under an observation (only the engine emits events), on
    an empty graph, or when a payload might not fit the word limit (PRB,
    the largest, has 2 + the words of a root id), so that the engine
    runs with its exact events and errors.
    """
    if current_observation() is not None:
        return None
    nodes = sorted(graph.nodes)  # raises as Network() would
    if not nodes:
        return None
    try:
        words = {v: measure_words((v,)) for v in nodes}
    except UnserializablePayload:
        return None
    neighbors = {v: tuple(sorted(graph.neighbors(v))) for v in nodes}
    weights = {v: {u: graph.weight(v, u) for u in neighbors[v]} for v in nodes}
    if word_limit < 2 + max(words.values()) or any(
        type(w) not in (int, float, type(None))  # MOE weights: one word
        for incident in weights.values()
        for w in incident.values()
    ):
        return None
    phases = log2_phase_count(k)
    if sum(5 * 2 ** i + 3 for i in range(1, phases + 1)) > DEFAULT_MAX_ROUNDS:
        raise RoundLimitExceeded(DEFAULT_MAX_ROUNDS)
    parent: Dict[Any, Any] = dict.fromkeys(nodes)
    children: Dict[Any, Set[Any]] = {v: set() for v in nodes}
    is_root = dict.fromkeys(nodes, True)
    fragment_id = {v: v for v in nodes}
    sends: List[Tuple[int, int, int]] = []  # (round, messages, words each)
    start = 0
    for i in range(1, phases + 1):
        L = 2 ** i
        # Depth-d nodes hear PRB at slot d and echo at 2L+1-d; a fragment
        # is active iff no depth-L node has children.
        active = []
        for root in nodes:
            if not is_root[root]:
                continue
            fragment_id[root] = root
            levels = [[root]]
            while len(levels) <= L:
                level = [c for v in levels[-1] for c in children[v]]
                if not level:
                    break
                d = len(levels)
                sends.append((start + d - 1, len(level), 2 + words[root]))
                sends.append((start + 2 * L + 1 - d, len(level), 2))
                for v in level:
                    fragment_id[v] = root
                levels.append(level)
            if len(levels) <= L or not any(children[v] for v in levels[L]):
                active.append(levels)
        member = {v: lv[0][0] for lv in active for level in lv for v in level}
        sent: Dict[Any, Any] = {}  # CONNECT sender -> target
        got: Dict[Any, List[Any]] = {}  # CONNECT target -> senders
        for levels in active:
            root = levels[0][0]
            for d in range(1, len(levels)):
                sends.append((start + 2 * L + d, len(levels[d]), 1))  # ACT
            fid = sum(len(neighbors[v]) for level in levels for v in level)
            sends.append((start + 3 * L + 1, fid, 1 + words[root]))
            # Slot 3L+2: an edge is outgoing unless an FID (sent by active
            # nodes only) named this root.  The convergecast keeps the
            # lightest of those and the children's reports, in inbox order.
            best: Dict[Any, Tuple[Any, Any, Any]] = {}
            for d in range(len(levels) - 1, -1, -1):
                for v in levels[d]:
                    wv = weights[v]
                    out = [(wv[u], u) for u in neighbors[v] if member.get(u) != root]
                    weight, target = min(out) if out else (None, None)
                    source = _SELF if out else None
                    for child in sorted(children[v], key=str):
                        w = best[child][0]
                        if w is not None and (weight is None or w < weight):
                            weight, source = w, child
                    best[v] = (weight, source, target)
                if d:
                    sends.append((start + 4 * L + 2 - d, len(levels[d]), 2))  # MOE
            # Rootship walks from slot 4L+2 to the MOE's endpoint v*,
            # which sends CONNECT at slot 5L+2.
            v = root
            weight, source, target = best[v]
            if weight is None:
                continue  # no outgoing edge: the fragment spans its component
            hop = start + 4 * L + 2
            while not (source == _SELF or source is None):
                sends.append((hop, 1, 1))  # XFR
                children[v].discard(source)
                parent[v], is_root[v] = source, False
                children[source].add(v)
                parent[source] = None
                v, hop = source, hop + 1
                _weight, source, target = best[v]
            is_root[v] = True
            if target is not None:
                sends.append((start + 5 * L + 2, 1, 1 + words[v]))  # CON
                sent[v] = target
                got.setdefault(target, []).append(v)
        # Slot 5L+3: reciprocal CONNECTs make the higher id the root;
        # one-sided ones hang the sender under the target.
        for x, senders in got.items():
            for sender in senders:
                if sent.get(x) == sender and not x > sender:
                    parent[x], is_root[x] = sender, False
                else:
                    children[x].add(sender)
        for x, target in sent.items():
            if target not in got.get(x, ()):
                parent[x], is_root[x] = target, False
        start += 5 * L + 3
    traffic = MessageStats()
    for round_number, messages, size in sorted(sends):
        if messages:
            traffic.messages += messages
            traffic.total_words += messages * size
            traffic.max_words = max(traffic.max_words, size)
            per_round = traffic.per_round
            per_round[round_number] = per_round.get(round_number, 0) + messages
    outputs = {
        v: {
            "parent": parent[v],
            "children": tuple(sorted(children[v], key=str)),
            "is_root": is_root[v],
            "fragment_id": fragment_id[v],
            "tree_edges": tuple(sorted(children[v] | ({parent[v]} - {None}), key=str)),
        }
        for v in nodes
    }
    metrics = RunMetrics(start, traffic, all_halted=True, halted_nodes=len(nodes))
    return RunRecord(metrics, outputs)


def fragment_trees(
    graph: Graph, parents: Dict[Any, Optional[Any]], fragments: List[Set[Any]]
) -> Iterator[Tuple[Set[Any], Graph, Any, Dict[Any, Optional[Any]]]]:
    """Yield ``(fragment, tree, root, parent map)`` for each fragment of a
    :func:`simple_mst_forest` result: the fragment's tree edges as a
    subgraph of ``graph``, rooted at its str-least parentless node.

    Nodes are added in ``set(fragment)`` order and edges in parent-map
    order, the order ``graph.subgraph(fragment).edge_subgraph(...)``
    gives, without that call's walk over all of ``graph``'s edges."""
    for fragment in fragments:
        fragment_parent = {v: parents[v] for v in fragment}
        root = min((v for v in fragment if parents[v] is None), key=str)
        tree = Graph()
        for v in set(fragment):
            tree.add_node(v)
        for v, p in fragment_parent.items():
            if p is not None:
                tree.add_edge(v, p, graph.weight(v, p))
        yield fragment, tree, root, fragment_parent


def _components_from_parents(
    parents: Dict[Any, Optional[Any]]
) -> List[Set[Any]]:
    adjacency: Dict[Any, Set[Any]] = {v: set() for v in parents}
    for v, p in parents.items():
        if p is not None:
            adjacency[v].add(p)
            adjacency[p].add(v)
    seen: Set[Any] = set()
    components: List[Set[Any]] = []
    for start in sorted(parents, key=str):
        if start in seen:
            continue
        stack = [start]
        component = set()
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(adjacency[v] - component)
        seen |= component
        components.append(component)
    return components
