"""Procedure ``Pipeline`` (§5.1, Fig. 8): fully pipelined global edge
elimination.

Every node of a BFS tree ``B`` maintains the set ``Q`` of inter-fragment
edges it knows of (its own incident ones, plus everything upcast by its
children) and the set ``U`` of edges it has already sent up.  At each
pulse it sends the lightest edge of::

    RC = Q \\ (U  ∪  Cyc(U, Q))

where ``Cyc(U, Q)`` is the set of edges closing a cycle with ``U`` on
the *fragment graph* (evaluated here with a per-node union-find over
fragment ids).  When ``RC`` is empty the node sends a terminating
message and stops upcasting.  The root gathers the surviving edges,
computes the fragment-graph MST locally (red rule: an edge that is
heaviest on a cycle is in no MST, so discarded edges are never needed),
and streams the ``N - 1`` chosen edges back down the tree.

The paper's analytical claims are instrumented directly:

* Lemma 5.1 (upcast edges form a forest) holds by construction of the
  union-find filter;
* Lemma 5.3(d) (each node upcasts in nondecreasing weight order) is
  checked at every send — a violation is recorded in the node output
  ``order_violations``;
* Lemmas 5.3(a)/5.4 (a node's candidate set only empties once all its
  children have terminated — the "fully pipelined, no waiting" claim)
  is checked when terminating — a violation is recorded in
  ``pipelining_violations``.

Setting ``eliminate_cycles=False`` disables the ``Cyc`` filter (every
known edge is upcast), turning the procedure into the naive
collect-everything baseline whose time is Θ(m + Diam) instead of
Θ(N + Diam) — the ablation of experiment E10.

:func:`run_pipeline` skips the simulation when unobserved: it takes the
BFS tree from :func:`~repro.primitives.bfs.build_bfs_tree` (itself
direct then) and :func:`_direct_pipeline` steps each node's pulses over
per-node state, with no envelopes, inboxes or scheduler, and computes
the selection stream in closed form.  :class:`PipelineProgram` on the
engine stays the reference (tests/differential/) and the only route
emitting events, so E10's stall check reads what the engine did.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..obs.session import current_observation
from ..primitives.bfs import build_bfs_tree
from ..sim.errors import UnserializablePayload
from ..sim.metrics import halted_metrics
from ..sim.model import Envelope, measure_words
from ..sim.network import Network
from ..sim.program import Context, NodeProgram
from ..sim.runner import RunRecord, StagedRun
from .unionfind import UnionFind

#: An edge descriptor: (weight, fragment_a, fragment_b, endpoint_a,
#: endpoint_b), endpoints sorted.  Descriptors are shared by both
#: endpoints so duplicates arriving via different children dedupe.
EdgeDescriptor = Tuple[float, Any, Any, Any, Any]


def make_descriptor(
    weight: float, u: Any, v: Any, fragment_of: Dict[Any, Any]
) -> EdgeDescriptor:
    a, b = (u, v) if str(u) < str(v) else (v, u)
    return (weight, fragment_of[a], fragment_of[b], a, b)


class PipelineProgram(NodeProgram):
    """One node of Procedure ``Pipeline``.

    Outputs: at every node ``upcast_count``, ``start_round``,
    ``term_round``, ``order_violations``, ``pipelining_violations``,
    ``incident_selected`` (its incident fragment-graph MST edges); at
    the root additionally ``selected_edges`` (the full set ``S``).
    """

    def __init__(
        self,
        ctx: Context,
        root: Any,
        parent_of: Dict[Any, Optional[Any]],
        fragment_id: Any,
        eliminate_cycles: bool = True,
    ):
        super().__init__(ctx)
        self.is_root = ctx.node == root
        self.parent = parent_of.get(ctx.node)
        self.children = tuple(
            nb for nb in ctx.neighbors if parent_of.get(nb) == ctx.node
        )
        self.fragment_id = fragment_id
        self.eliminate_cycles = eliminate_cycles

        self.queue: List[EdgeDescriptor] = []  # Q, kept sorted
        self.known: Set[EdgeDescriptor] = set()
        self.sent_up: Set[EdgeDescriptor] = set()  # U
        self.union_find = UnionFind()
        self.children_heard: Set[Any] = set()
        self.children_done: Set[Any] = set()
        self.started = False
        self.terminated = False
        self.last_weight_sent: Optional[float] = None

        # Downstream broadcast state (root originates, others relay).
        self.broadcast_queue: List[Tuple[Any, Any]] = []
        self.stream_complete = False
        self.selected_incident: List[Tuple[Any, Any]] = []

        self.output["order_violations"] = 0
        self.output["pipelining_violations"] = 0
        self.output["upcast_count"] = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Pulse -1: learn the fragment ids across every incident edge.
        self.broadcast("FRG", self.fragment_id)

    def on_round(self, inbox: List[Envelope]) -> None:
        for envelope in inbox:
            tag = envelope.tag()
            if tag == "FRG":
                self._note_fragment(envelope)
            elif tag == "EDG":
                self._receive_edge(envelope)
            elif tag == "TRM":
                self.children_heard.add(envelope.sender)
                self.children_done.add(envelope.sender)
            elif tag == "SEL":
                self._receive_selection(envelope)
            elif tag == "DON":
                self.stream_complete = True

        if not self.started:
            if self.children_heard >= set(self.children) and self.round >= 1:
                self.started = True
                self.output["start_round"] = self.round
        if self.started and not self.terminated and not self.is_root:
            self._pulse_upcast()
        if self.is_root:
            self._maybe_complete()
        self._pump_broadcast()

    # -- building Q ------------------------------------------------------
    def _note_fragment(self, envelope: Envelope) -> None:
        neighbor = envelope.sender
        neighbor_fragment = envelope.payload[1]
        if neighbor_fragment == self.fragment_id:
            return
        weight = self.ctx.weight(neighbor)
        a, b = (
            (self.node, neighbor)
            if str(self.node) < str(neighbor)
            else (neighbor, self.node)
        )
        fa = self.fragment_id if a == self.node else neighbor_fragment
        fb = neighbor_fragment if a == self.node else self.fragment_id
        self._add_edge((weight, fa, fb, a, b))

    def _receive_edge(self, envelope: Envelope) -> None:
        _tag, weight, fa, fb, a, b = envelope.payload
        self.children_heard.add(envelope.sender)
        self._add_edge((weight, fa, fb, a, b))

    def _add_edge(self, descriptor: EdgeDescriptor) -> None:
        if descriptor not in self.known:
            self.known.add(descriptor)
            self.queue.append(descriptor)
            self.queue.sort()

    # -- upcasting --------------------------------------------------------
    def _next_candidate(self) -> Optional[EdgeDescriptor]:
        while self.queue:
            descriptor = self.queue[0]
            weight, fa, fb, _a, _b = descriptor
            if descriptor in self.sent_up:
                self.queue.pop(0)
                continue
            if self.eliminate_cycles and self.union_find.connected(fa, fb):
                # e in Cyc(U, Q): drop for good (red rule).
                self.queue.pop(0)
                continue
            return descriptor
        return None

    def _pulse_upcast(self) -> None:
        candidate = self._next_candidate()
        if candidate is None:
            if self.children_done < set(self.children):
                # Lemma 5.3(a) violated: we ran dry while a child was
                # still streaming.
                self.output["pipelining_violations"] += 1
            self.terminated = True
            self.output["term_round"] = self.round
            self.send(self.parent, "TRM")
            return
        weight, fa, fb, a, b = candidate
        if self.last_weight_sent is not None and weight < self.last_weight_sent:
            self.output["order_violations"] += 1
        self.last_weight_sent = weight
        self.queue.pop(0)
        self.sent_up.add(candidate)
        self.union_find.union(fa, fb)
        self.output["upcast_count"] += 1
        self.send(self.parent, "EDG", weight, fa, fb, a, b)

    # -- root: collect, solve, broadcast ------------------------------------
    def _maybe_complete(self) -> None:
        if self.stream_complete or self.output.get("selected_edges") is not None:
            return
        if not self.started:
            return
        if self.children_done < set(self.children):
            return
        # Everything has arrived: solve the fragment-graph MST (Kruskal
        # over the surviving candidates — the red rule guarantees the
        # discarded edges are in no MST, Lemma 5.5).
        candidates = sorted(self.known)
        uf = UnionFind()
        selected: List[Tuple[Any, Any]] = []
        for weight, fa, fb, a, b in candidates:
            if uf.union(fa, fb):
                selected.append((a, b))
        self.output["selected_edges"] = list(selected)
        self.broadcast_queue = list(selected)
        self.stream_complete = True
        self._mark_incident(selected)

    def _pump_broadcast(self) -> None:
        """Relay the selection stream downward, one edge per round."""
        if self.broadcast_queue:
            a, b = self.broadcast_queue.pop(0)
            for child in self.children:
                self.send(child, "SEL", a, b)
        elif self.stream_complete:
            for child in self.children:
                self.send(child, "DON")
            self.output["incident_selected"] = list(self.selected_incident)
            self.halt()

    def _receive_selection(self, envelope: Envelope) -> None:
        _tag, a, b = envelope.payload
        self.broadcast_queue.append((a, b))
        self._mark_incident([(a, b)])

    def _mark_incident(self, selected: List[Tuple[Any, Any]]) -> None:
        for a, b in selected:
            if a == self.node or b == self.node:
                self.selected_incident.append((a, b))


def run_pipeline(
    graph: Graph,
    fragment_of: Dict[Any, Any],
    root: Any = None,
    eliminate_cycles: bool = True,
    word_limit: int = 8,
) -> Tuple[List[Tuple[Any, Any]], StagedRun, Any]:
    """Run Procedure ``Pipeline``: BFS stage + pipelined elimination.

    Returns (selected inter-fragment MST edges, staged rounds, the
    pipeline run for inspection: the :class:`Network`, or off the
    engine a :class:`~repro.sim.runner.RunRecord` with the same outputs
    and metrics).
    """
    from ..graphs.validation import is_connected

    if not is_connected(graph):
        raise ValueError(
            "Pipeline requires a connected graph (the BFS tree must span "
            "every fragment)"
        )
    if root is None:
        root = min(graph.nodes, key=str)
    staged = StagedRun()
    parents, depths, bfs_run = build_bfs_tree(graph, root, word_limit)
    staged.record("bfs-tree", bfs_run.metrics)

    run = _direct_pipeline(
        graph, fragment_of, root, parents, depths, eliminate_cycles, word_limit
    )
    if run is None:
        run = Network(graph, word_limit=word_limit)
        run.run(
            lambda ctx: PipelineProgram(
                ctx, root, parents, fragment_of[ctx.node], eliminate_cycles
            )
        )
    staged.record("pipeline", run.metrics)
    return list(run.outputs()[root]["selected_edges"]), staged, run


#: Words of each message: FRG, EDG, TRM, SEL and DON.
_FRG, _EDG, _TRM, _SEL, _DON = 2, 6, 1, 3, 1


def _direct_pipeline(
    graph: Graph,
    fragment_of: Dict[Any, Any],
    root: Any,
    parents: Dict[Any, Optional[Any]],
    depths: Dict[Any, int],
    eliminate_cycles: bool,
    word_limit: int,
) -> Optional[RunRecord]:
    """Compute :class:`PipelineProgram`'s run over the BFS tree
    ``parents`` without simulating it.

    A node's pulses depend only on what its children sent it, so nodes
    are visited deepest first and each one's upcast stream is stepped
    pulse by pulse from its children's streams: child ``c``, started at
    round ``s_c``, delivers its ``i``-th EDG at ``s_c + i + 1`` and its
    TRM after the last.  A node starts once it has heard from every
    child, holding its own inter-fragment edges (the round-0 FRG
    exchange) in a heap as Q, and keeps its own union-find as the Cyc
    filter.  The root solves at the round R its last TRM arrives; a
    depth-d node then relays the i-th selected edge at R + i + d and
    DON at R + |S| + d, so the run ends at R + |S| + M.

    Returns None, so the engine runs with its events and errors, under
    an observation, for a word limit below the 6-word EDG, a node or
    fragment id that is not one word, a weight that is not an int or
    float (or is NaN), or a node that runs dry while a child still
    streams (Lemma 5.3(a)).
    """
    if current_observation() is not None or word_limit < _EDG:
        return None
    nodes = list(parents)  # the engine's node order
    fragments = [fragment_of[v] for v in nodes]
    try:
        if any(measure_words((x,)) != 1 for x in nodes + fragments):
            return None
    except UnserializablePayload:
        return None
    own: Dict[Any, List[EdgeDescriptor]] = {}
    degrees = 0
    for v in nodes:
        incident = own[v] = []
        for u in graph.neighbors(v):
            degrees += 1
            w = graph.weight(v, u)
            if type(w) not in (int, float) or w != w:
                return None
            if fragment_of[u] != fragment_of[v]:
                incident.append(make_descriptor(w, v, u, fragment_of))
    children: Dict[Any, List[Any]] = {v: [] for v in nodes}
    for v in nodes:
        if parents[v] is not None:
            children[parents[v]].append(v)

    start: Dict[Any, int] = {}
    sent: Dict[Any, List[EdgeDescriptor]] = {root: []}  # EDGs; TRM follows
    order_violations = dict.fromkeys(nodes, 0)
    for v in sorted(nodes, key=depths.__getitem__, reverse=True):
        kids = children[v]
        s = start[v] = max((start[c] + 1 for c in kids), default=1)
        if v == root:
            break
        queue = own[v]
        known = set(queue)
        for c in kids:
            for descriptor in sent[c][: s - start[c]]:  # arrived by round s
                if descriptor not in known:
                    known.add(descriptor)
                    queue.append(descriptor)
        heapq.heapify(queue)
        streaming = [c for c in kids if len(sent[c]) > s - start[c]]
        union_find = UnionFind() if eliminate_cycles else None
        out = sent[v] = []
        last = None
        r = s
        while True:
            if union_find is not None:
                while queue and union_find.connected(queue[0][1], queue[0][2]):
                    heapq.heappop(queue)  # in Cyc(U, Q): dropped for good
            if not queue:
                if any(start[c] + len(sent[c]) + 1 > r for c in kids):
                    return None  # ran dry while a child still streams
                break
            descriptor = heapq.heappop(queue)
            if last is not None and descriptor[0] < last:
                order_violations[v] += 1
            last = descriptor[0]
            if union_find is not None:
                union_find.union(descriptor[1], descriptor[2])
            out.append(descriptor)
            r += 1
            for c in streaming:
                i = r - start[c] - 1
                if i < len(sent[c]) and sent[c][i] not in known:
                    known.add(sent[c][i])
                    heapq.heappush(queue, sent[c][i])
            streaming = [c for c in streaming if r - start[c] < len(sent[c])]

    # The root solves once its last child's TRM arrives, over every
    # descriptor it heard (Kruskal on the fragment graph).
    solved = max((start[c] + len(sent[c]) + 1 for c in children[root]), default=1)
    known = set(own[root])
    for c in children[root]:
        known.update(sent[c])
    union_find = UnionFind()
    selected = [(a, b) for _w, fa, fb, a, b in sorted(known) if union_find.union(fa, fb)]
    incident: Dict[Any, List[Tuple[Any, Any]]] = {v: [] for v in nodes}
    for a, b in selected:
        incident[a].append((a, b))
        incident[b].append((a, b))
    outputs: Dict[Any, Dict[str, Any]] = {}
    for v in nodes:
        out = outputs[v] = {
            "order_violations": order_violations[v],
            "pipelining_violations": 0,
            "upcast_count": len(sent[v]),
            "start_round": start[v],
        }
        if v == root:
            out["selected_edges"] = list(selected)
        else:
            out["term_round"] = start[v] + len(sent[v])
        out["incident_selected"] = incident[v]

    # Metrics: the FRG exchange at round 0; each non-root sends one EDG
    # or TRM per round from its start through its TRM; then the
    # SEL/DON stream reaches depth d + 1 from R + d on.
    n, picked, tree_depth = len(nodes), len(selected), max(depths.values())
    rounds = solved + picked + tree_depth
    delta = [0] * (rounds + 2)
    counts = [0] * (rounds + 1)
    counts[0] = degrees
    below = [0] * (tree_depth + 1)  # nodes at depth d + 1
    for v in nodes:
        if v != root:
            delta[start[v]] += 1
            delta[start[v] + len(sent[v]) + 1] -= 1
            below[depths[v] - 1] += 1
    for d, receivers in enumerate(below):
        delta[solved + d] += receivers
        delta[solved + d + picked] -= receivers
        counts[solved + picked + d] += receivers  # DON
    running = 0
    for r in range(rounds + 1):
        running += delta[r]
        counts[r] += running
    edgs = sum(map(len, sent.values()))
    sends = [
        (degrees, _FRG), (edgs, _EDG), (n - 1, _TRM), (picked * (n - 1), _SEL), (n - 1, _DON),
    ]
    words = sum(messages * size for messages, size in sends)
    max_words = max((size for messages, size in sends if messages), default=0)
    return RunRecord(halted_metrics(rounds, counts, words, max_words, n), outputs)
