"""Dense kernels for the FastDOM/TreeKDom stages.

Three groups of kernels, mirroring the reference drivers:

* **Tree k-domination DP** (:func:`dense_cluster_domination`) — the
  bottom-up convergecast of :class:`~repro.core.kdom_tree.TreeKDomProgram`,
  evaluated as one max/min scatter-reduce per height level.  The same
  arrays serve a single tree (``tree_kdominating_set``) and a whole
  cluster forest at once (``fastdom_tree``'s per-cluster parallel
  stage): restricting the parent array to in-cluster edges makes the
  per-level reduction identical to running one program per cluster, and
  :func:`dp_metrics` reproduces the :meth:`RunMetrics.merge` of the
  per-cluster runs in closed form (rounds = max cluster height,
  traffic summed).

* **Nearest-dominator wave** (:func:`nearest_dominator_wave`) — the
  k-round multi-source label propagation of
  :class:`~repro.core.kdom_tree.NearestDominatorProgram`: one
  scatter-min of dominator labels over cluster-internal edges per
  level.  A node adopts the minimum label among its one-level-closer
  neighbours — exactly ``sorted(offers)[0]`` in the reference — and
  everything halts at round ``k`` off the wakeup schedule.  A single
  tree is one cluster: an all-zero ``owner`` array.

* **Balanced stage** (:func:`balanced_rows`) — the
  ruling-set rounds of ``Small-Dom-Set`` on the *contracted* forest
  (Cole–Vishkin six-colouring, shift-down to three colours, the
  three-phase maximal matching, and the star partition), as whole-array
  steps over the ``top -> parent top`` map.  The contracted forest's
  adjacency equals its parent relation (a connected subtree of a tree
  has exactly one member whose parent lies outside), so no contracted
  graph object is ever materialised.  Returns the virtual round count
  the reference :class:`~repro.sim.virtual.VirtualNetwork` would have
  measured: every node's script consumes one yield per round —
  ``cv_iterations + 1`` for the colouring and its drain round, two per
  shift-down phase, three per matching phase, and two for the star
  partition — so all nodes halt at round ``cv_iterations + 18``.

The kernels return arrays and :class:`~repro.sim.metrics.RunMetrics`;
none registers a run or emits an event.  Their drivers run the
reference engine whenever an observation session is active.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .core import np
from .csr import CSRAdjacency, csr_adjacency
from .kernels import _edge_endpoints, _group_by_level, forest_heights
from ..metrics import RunMetrics
from ...symmetry.log_star import cv_iterations

#: Fixed yield count of the SmallDomSet script after the colouring:
#: 1 drain round + 3 shift-down phases x 2 + 3 matching phases x 3 + 2
#: star-partition rounds.
_BALANCED_EXTRA_ROUNDS = 18

#: ``("DP", uncov, cov)`` and ``("DOM", id, dist)`` both measure 3 words.
_WORDS = 3


# ---------------------------------------------------------------------------
# Tree k-domination DP
# ---------------------------------------------------------------------------

def kdom_dp(parent: Any, height_levels: List[Any], k: int) -> Any:
    """Evaluate the tree k-domination DP bottom-up over height levels.

    Returns the membership flags; ``state_u``/``state_c`` hold the
    ``(uncov, cov)`` pair each node sends to its parent.  With a
    cluster-restricted ``parent`` array this evaluates every cluster's
    DP simultaneously (each row with ``parent < 0`` acts as its
    cluster's sub-root).
    """
    n = parent.shape[0]
    cap = k + 1
    acc_a = np.zeros(n, dtype=np.int64)  # max(child uncov + 1), 0 = self
    acc_b = np.full(n, cap, dtype=np.int64)  # min(child cov + 1), capped
    state_u = np.empty(n, dtype=np.int64)
    state_c = np.empty(n, dtype=np.int64)
    in_dom = np.zeros(n, dtype=bool)
    for rows in height_levels:
        a = acc_a[rows]
        b = acc_b[rows]
        covered = a + b <= k
        dominates = ~covered & (a >= k)
        state_u[rows] = np.where(covered | dominates, -1, a)
        state_c[rows] = np.where(dominates, 0, b)
        in_dom[rows[dominates]] = True
        inner = rows[parent[rows] >= 0]
        if inner.size:
            np.maximum.at(acc_a, parent[inner], state_u[inner] + 1)
            np.minimum.at(
                acc_b, parent[inner], np.minimum(state_c[inner] + 1, cap)
            )
    roots = parent < 0
    in_dom[roots & (state_u != -1)] = True
    return in_dom


def dp_metrics(parent: Any, heights: Any) -> RunMetrics:
    """Metrics of the DP convergecast — identical to the parallel merge
    of the per-cluster reference runs: a node fires (and a non-root
    sends its 3-word state) at round = its height."""
    non_root = parent >= 0
    messages = int(non_root.sum())
    rounds = int(heights.max()) if heights.size else 0
    per_round = np.bincount(heights[non_root], minlength=rounds + 1)
    metrics = RunMetrics()
    metrics.rounds = rounds
    metrics.traffic.messages = messages
    metrics.traffic.total_words = _WORDS * messages
    metrics.traffic.max_words = _WORDS if messages else 0
    metrics.traffic.per_round = {
        r: int(c) for r, c in enumerate(per_round) if c
    }
    metrics.all_halted = True
    metrics.halted_nodes = int(parent.shape[0])
    return metrics


# ---------------------------------------------------------------------------
# Nearest-dominator wave
# ---------------------------------------------------------------------------

def nearest_dominator_wave(
    csr: CSRAdjacency, owner: Any, in_dom: Any, k: int
) -> Tuple[Any, Any, RunMetrics]:
    """k-round multi-source wave within clusters.

    Returns ``(label, dist, metrics)`` where ``label[v]`` is the
    dominator id ``v`` adopts (−1 if the wave never reached it — which
    the drivers turn into the reference ``RuntimeError``) and ``dist``
    the adoption round.  ``owner`` assigns each row a cluster index;
    messages travel only over intra-cluster edges, exactly like the
    per-cluster subgraphs of the reference driver.  Everything halts at
    round ``k`` off the wakeup schedule, so rounds = ``k`` regardless
    of when the wave dies out.
    """
    n = csr.n
    label = np.where(in_dom, csr.ids, np.int64(-1))
    dist = np.where(in_dom, np.int64(0), np.int64(-1))
    sources, targets = _edge_endpoints(csr)
    internal = owner[sources] == owner[targets]
    deg_in = np.bincount(sources[internal], minlength=n)
    per_round = np.zeros(k + 1, dtype=np.int64)
    frontier = np.flatnonzero(in_dom)
    big = np.iinfo(np.int64).max
    for d in range(1, k + 1):
        if frontier.size == 0:
            break
        # The distance-(d−1) adopters broadcast on round d−1 (d−1 < k
        # inside this loop), to every in-cluster neighbour.
        per_round[d - 1] = int(deg_in[frontier].sum())
        s, t = csr.gather_edges(frontier)
        keep = owner[s] == owner[t]
        s, t = s[keep], t[keep]
        fresh = dist[t] < 0
        s, t = s[fresh], t[fresh]
        if t.size == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        best = np.full(n, big, dtype=np.int64)
        np.minimum.at(best, t, label[s])
        frontier = np.unique(t)
        label[frontier] = best[frontier]
        dist[frontier] = d
    messages = int(per_round.sum())
    metrics = RunMetrics()
    metrics.rounds = k
    metrics.traffic.messages = messages
    metrics.traffic.total_words = _WORDS * messages
    metrics.traffic.max_words = _WORDS if messages else 0
    metrics.traffic.per_round = {
        r: int(c) for r, c in enumerate(per_round) if c
    }
    metrics.all_halted = True
    metrics.halted_nodes = n
    return label, dist, metrics


# ---------------------------------------------------------------------------
# tree_kdominating_set (a single tree)
# ---------------------------------------------------------------------------

def plan_tree_kdom(graph, root, parent_of) -> Optional[Any]:
    """``row -> parent row`` for a single tree, or ``None`` when the
    parent map falls outside the reference program's happy path (a root
    the graph lacks, missing parents, a parented root, parent edges
    absent from the graph) — those inputs must fail in the engine's own
    way.  A parent cycle passes here; :func:`dense_cluster_domination`
    reports it."""
    csr = csr_adjacency(graph)
    if root not in csr.index:
        return None
    n = csr.n
    parent = np.full(n, -1, dtype=np.int64)
    for i, v in enumerate(csr.nodes):
        p = parent_of.get(v)
        if v == root:
            if p is not None:
                return None
        elif p is None or p not in csr.index:
            return None
        else:
            parent[i] = csr.index[p]
    sources, targets = _edge_endpoints(csr)
    has_edge = np.zeros(n, dtype=bool)
    has_edge[sources[parent[sources] == targets]] = True
    if not bool(has_edge[parent >= 0].all()):
        return None
    return parent


# ---------------------------------------------------------------------------
# fastdom_tree kernels (cluster forest)
# ---------------------------------------------------------------------------

def partition_from_labels(csr: CSRAdjacency, label: Any):
    """Build the output :class:`~repro.graphs.partition.Partition` from
    a per-row dominator-id array, grouping rows by label in one argsort
    instead of a python dict pass over every node.  Every dominator
    labels itself, so each group contains its centre."""
    from ...graphs.partition import Cluster, Partition

    order = np.argsort(label, kind="stable")
    sorted_labels = label[order]
    cuts = np.flatnonzero(np.diff(sorted_labels)) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    ends = np.concatenate((cuts, [order.shape[0]])).tolist()
    rows = order.tolist()
    centers = sorted_labels[np.concatenate(([0], cuts))].tolist()
    nodes = csr.nodes
    return Partition(
        Cluster._owning(center, {nodes[r] for r in rows[a:b]})
        for center, a, b in zip(centers, starts, ends)
    )


def dense_cluster_domination(
    csr: CSRAdjacency, parent: Any, k: int
) -> Optional[Tuple[Any, RunMetrics]]:
    """All per-cluster DP runs at once; returns (in_dom, merged
    metrics), or ``None`` when ``parent`` contains a cycle (the
    reference program would hang)."""
    grown = forest_heights(parent, csr.n)
    if grown is None:
        return None
    heights, _depth = grown
    levels = _group_by_level(heights, int(heights.max()) + 1)
    in_dom = kdom_dp(parent, levels, k)
    return in_dom, dp_metrics(parent, heights)


# ---------------------------------------------------------------------------
# Balanced stage (Small-Dom-Set on the contracted forest)
# ---------------------------------------------------------------------------

def _bit_index(low: Any) -> Any:
    """Index of the single set bit in each (power-of-two) element."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(low - 1).astype(np.int64)
    # Powers of two are exact in float64 up to 2^62.
    return np.log2(low.astype(np.float64)).astype(np.int64)


def balanced_rows(
    ids: Any, parent: Any, id_bound: int
) -> Tuple[Any, int]:
    """``Small-Dom-Set`` on a contracted forest, as array rounds.

    ``ids`` are the tops as ascending int64 (``ContractedGraph.nodes``
    order), ``parent`` their parent positions (−1 = root).  Returns the
    dominator *id* per position and the virtual round count — the same
    as :func:`repro.core.small_dom_set.direct_small_dom_set`'s
    ``dominator`` output and round count."""
    n = ids.shape[0]
    nr_rows = np.flatnonzero(parent >= 0)
    pidx = parent[nr_rows]
    root_rows = parent < 0
    has_children = np.zeros(n, dtype=bool)
    has_children[pidx] = True
    isolated = root_rows & ~has_children

    # -- Cole–Vishkin six-colouring ------------------------------------------
    colors = ids.copy()
    total_steps = cv_iterations(max(n, id_bound, 1))
    for _step in range(total_steps):
        new = np.empty_like(colors)
        new[root_rows] = colors[root_rows] & 1
        c = colors[nr_rows]
        diff = c ^ colors[pidx]
        low = diff & -diff
        i = _bit_index(low)
        new[nr_rows] = 2 * i + ((c >> i) & 1)
        colors = new

    # -- shift-down to three colours -----------------------------------------
    for target in (5, 4, 3):
        pre = colors
        post = np.empty_like(pre)
        post[root_rows] = np.where(pre[root_rows] == 0, 1, 0)
        post[nr_rows] = pre[pidx]
        recolor = np.flatnonzero(post == target)  # roots end <= 1: never
        if recolor.size:
            used_parent = post[parent[recolor]]
            # All of a node's children adopt *its* pre-shift colour.
            used_child = np.where(has_children[recolor], pre[recolor], -1)
            pick = np.full(recolor.shape[0], 2, dtype=np.int64)
            pick[(used_parent != 1) & (used_child != 1)] = 1
            pick[(used_parent != 0) & (used_child != 0)] = 0
            post[recolor] = pick
        colors = post

    # -- maximal matching (three colour phases) ------------------------------
    partner = np.full(n, -1, dtype=np.int64)
    for c in (0, 1, 2):
        cand = nr_rows[
            (partner[nr_rows] < 0)
            & (colors[nr_rows] == c)
            & (partner[parent[nr_rows]] < 0)
        ]
        if cand.size == 0:
            continue
        # Ascending ids <=> ascending rows, so the reference's
        # smallest-id winner is a row-wise scatter-min.
        best = np.full(n, n, dtype=np.int64)
        np.minimum.at(best, parent[cand], cand)
        acceptors = np.flatnonzero(best < n)
        winners = best[acceptors]
        partner[acceptors] = winners
        partner[winners] = acceptors

    # -- star partition -------------------------------------------------------
    matched = partner >= 0
    big = np.iinfo(np.int64).max
    # Contracted adjacency = the parent relation, so the smallest
    # (matched, by maximality) neighbour is min(parent id, child ids).
    min_neighbor = np.full(n, big, dtype=np.int64)
    np.minimum.at(min_neighbor, pidx, ids[nr_rows])
    min_neighbor[nr_rows] = np.minimum(min_neighbor[nr_rows], ids[pidx])
    dominator = np.empty(n, dtype=np.int64)
    in_dom = np.zeros(n, dtype=bool)
    unmatched = ~matched & ~isolated
    dominator[unmatched] = min_neighbor[unmatched]
    got = np.zeros(n, dtype=bool)
    attach_rows = np.flatnonzero(unmatched)
    if attach_rows.size:
        got[np.searchsorted(ids, min_neighbor[attach_rows])] = True
    partner_got = np.zeros(n, dtype=bool)
    m_rows = np.flatnonzero(matched)
    partner_got[m_rows] = got[partner[m_rows]]
    own = matched & got
    in_dom[own] = True
    dominator[own] = ids[own]
    via = matched & ~got & partner_got
    dominator[via] = ids[partner[via]]
    both = matched & ~got & ~partner_got
    center = np.minimum(ids[both], ids[partner[both]])
    dominator[both] = center
    in_dom[both] = center == ids[both]
    in_dom[isolated] = True
    dominator[isolated] = ids[isolated]

    return dominator, total_steps + _BALANCED_EXTRA_ROUNDS
