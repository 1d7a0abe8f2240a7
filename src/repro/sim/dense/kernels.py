"""The dense BFS tree and the level machinery the forest kernels share.

:func:`dense_bfs_tree` re-derives, with whole-array numpy rounds,
exactly what :class:`~repro.primitives.bfs.BFSTreeProgram` computes
node by node: BFS levels plus a closed form of the wave/echo/broadcast
protocol — parent = min-``str`` offer, echo rounds from the recurrence
``E(v) = max(base(v), max_child E + 1)``, total rounds ``E(root) + M``.
It returns the parent and depth maps and a
:class:`~repro.sim.runner.RunRecord` whose outputs and
:class:`~repro.sim.metrics.RunMetrics` are identical to the reference
engine's.  It emits no events: its driver runs the reference engine
whenever an observation is active.  The unobserved reference route of
:func:`~repro.primitives.bfs.build_bfs_tree` computes the same closed
form over dicts, so only ``repro perf`` and the tests call this one.

:func:`plan_bfs` returns ``None`` when the input is outside the
kernel's contract (a root the graph lacks, a disconnected graph, a word
limit below the protocol's 2-word messages), so the caller can run the
reference engine and let it fail in its own way.

:func:`forest_heights` and :func:`_group_by_level` serve the forest
kernels (:mod:`repro.sim.dense.forest`) and the dense ``dom_partition``
driver.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .core import np
from .csr import CSRAdjacency, csr_adjacency
from ..metrics import halted_metrics
from ..runner import RunRecord


# ---------------------------------------------------------------------------
# Shared level-structure machinery
# ---------------------------------------------------------------------------

def bfs_levels(
    csr: CSRAdjacency, source_row: int
) -> Tuple[Any, List[Any]]:
    """Distance array (−1 = unreached) and per-distance row arrays
    (each ascending, matching the engine's sorted schedule)."""
    n = csr.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[source_row] = 0
    frontier = np.array([source_row], dtype=np.int64)
    levels = [frontier]
    while frontier.size:
        _, targets = csr.gather_edges(frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = len(levels)
        levels.append(frontier)
    return dist, levels


def _edge_endpoints(csr: CSRAdjacency) -> Tuple[Any, Any]:
    """All 2m directed edges as (source rows, target rows)."""
    sources = np.repeat(
        np.arange(csr.n, dtype=np.int64), csr.degrees
    )
    return sources, csr.indices


def min_str_prev_neighbor(
    csr: CSRAdjacency, dist: Any
) -> Tuple[Any, Any, Any]:
    """Per row: the minimum-``str`` neighbor one BFS level closer to the
    source (−1 for the source row), the count of such neighbors, and
    the count of same-level neighbors.

    This is exactly the reference parent/first-sender choice: offers
    arrive from *all* previous-level neighbors in the same round and the
    program picks ``min(offers, key=str(sender))``.
    """
    n = csr.n
    sources, targets = _edge_endpoints(csr)
    prev = dist[targets] == dist[sources] - 1
    same = dist[targets] == dist[sources]
    best_rank = np.full(n, n, dtype=np.int64)
    np.minimum.at(best_rank, sources[prev], csr.str_rank[targets[prev]])
    parent = np.full(n, -1, dtype=np.int64)
    found = best_rank < n
    parent[found] = csr.rank_to_row[best_rank[found]]
    offer_counts = np.bincount(sources[prev], minlength=n)
    same_counts = np.bincount(sources[same], minlength=n)
    return parent, offer_counts, same_counts


# ---------------------------------------------------------------------------
# Forest heights
# ---------------------------------------------------------------------------

def _group_by_level(values: Any, count: int) -> List[Any]:
    """Rows grouped by ``values`` (0..count−1), ascending inside each
    group — one stable argsort instead of ``count`` boolean scans."""
    order = np.argsort(values, kind="stable")
    boundaries = np.searchsorted(values[order], np.arange(count + 1))
    return [
        order[boundaries[i]: boundaries[i + 1]] for i in range(count)
    ]


def forest_heights(parent: Any, n: int) -> Optional[Tuple[Any, Any]]:
    """Height of every row in the forest given by ``parent`` (−1 =
    root), plus each row's depth.  Returns ``None`` if ``parent``
    contains a cycle (the reference program would deadlock; callers
    treat it as un-plannable)."""
    depth = np.full(n, -1, dtype=np.int64)
    roots = np.flatnonzero(parent < 0)
    depth[roots] = 0
    frontier = roots
    # Child adjacency via one argsort over parents; every row appears
    # as a child at most once, so the walk is O(n) total.
    order = np.argsort(parent, kind="stable")
    child_ptr = np.searchsorted(parent[order], np.arange(n + 1))
    level = 0
    while frontier.size:
        starts = child_ptr[frontier]
        counts = child_ptr[frontier + 1] - starts
        total = int(counts.sum())
        level += 1
        if total == 0:
            break
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        children = order[np.repeat(starts, counts) + within]
        depth[children] = level
        frontier = children
    if int(depth.min()) < 0:
        return None
    heights = np.zeros(n, dtype=np.int64)
    levels = _group_by_level(depth, int(depth.max()) + 1)
    for rows in reversed(levels):
        inner = rows[parent[rows] >= 0]
        if inner.size:
            np.maximum.at(heights, parent[inner], heights[inner] + 1)
    return heights, depth


# ---------------------------------------------------------------------------
# BFS tree
# ---------------------------------------------------------------------------

class BFSPlan:
    def __init__(self, csr, dist, levels, parent, offers, same_counts):
        self.csr = csr
        self.dist = dist
        self.levels = levels
        self.parent = parent
        self.offers = offers
        self.same_counts = same_counts


def plan_bfs(graph, root, word_limit: int) -> Optional[BFSPlan]:
    if word_limit < 2:
        return None
    csr = csr_adjacency(graph)
    if root not in csr.index:
        return None
    dist, levels = bfs_levels(csr, csr.index[root])
    if int(dist.min()) < 0:
        return None  # disconnected: reference raises RoundLimitExceeded
    parent, offers, same_counts = min_str_prev_neighbor(csr, dist)
    return BFSPlan(csr, dist, levels, parent, offers, same_counts)


def dense_bfs_tree(graph, root, plan: BFSPlan):
    """Execute a planned BFS-tree construction; return (parent map,
    depth map, run record), as :func:`~repro.primitives.bfs.build_bfs_tree`.

    Echo rounds follow the wave protocol's closed form: a node with no
    un-offered neighbors echoes at ``depth+1`` (off its scheduler
    wakeup); any other node waits for its wave responses (``depth+2``)
    and its childrens' echoes (``E(child)+1``); the root's floor is
    round 2.  Total rounds = ``E(root) + M``.
    """
    csr, dist, levels, parent = plan.csr, plan.dist, plan.levels, plan.parent
    n = csr.n
    root_row = csr.index[root]
    depth_max = len(levels) - 1

    if n == 1:
        outputs = {
            root: {
                "parent": None, "depth": 0, "children": (),
                "tree_depth": 0, "t1": 1,
            }
        }
        return {root: None}, {root: 0}, RunRecord(halted_metrics(0, (), 0, 0, 1), outputs)

    degrees = csr.degrees
    others = degrees - plan.offers  # wave fan-out after adoption
    others[root_row] = degrees[root_row]
    # E(v): deepest level first, folding E(child)+1 into each parent.
    base = np.where(others > 0, dist + 2, dist + 1)
    base[root_row] = 2
    echo_round = np.zeros(n, dtype=np.int64)
    child_acc = np.zeros(n, dtype=np.int64)
    for rows in reversed(levels):
        echo_round[rows] = np.maximum(base[rows], child_acc[rows])
        inner = rows[parent[rows] >= 0]
        if inner.size:
            np.maximum.at(
                child_acc, parent[inner], echo_round[inner] + 1
            )
    e_root = int(echo_round[root_row])
    rounds = e_root + depth_max

    # -- metrics --------------------------------------------------------------
    # Adoption bundle: every non-root sends deg(v) messages on round
    # d(v) (1 ACCEPT + (offers−1) REJECTs + others WAVEs); the root
    # sends deg WAVEs on round 0.  Late REJECTs answer same-level
    # waves one round after adoption; ECHO fires at E(v); MFIN goes to
    # each child at E(root)+depth.
    per_round = np.zeros(rounds + 1, dtype=np.int64)
    np.add.at(per_round, dist, degrees)
    np.add.at(per_round, dist + 1, plan.same_counts)
    non_root = np.arange(n) != root_row
    np.add.at(per_round, echo_round[non_root], 1)
    child_counts = np.bincount(parent[non_root], minlength=n)
    np.add.at(per_round, e_root + dist, child_counts)
    # offers(root) = 0, so this sum already counts the root's fan-out.
    wave_words = 2 * (degrees - plan.offers).sum()
    accept_reject_words = (
        plan.offers.sum() + plan.same_counts.sum()
    )
    echo_mfin_words = 2 * (n - 1) * 2
    metrics = halted_metrics(
        rounds,
        per_round,
        int(wave_words + accept_reject_words + echo_mfin_words),
        2,
        n,
    )

    # -- outputs --------------------------------------------------------------
    nodes = csr.nodes
    parent_list = parent.tolist()
    dist_list = dist.tolist()

    def build_outputs() -> Dict[Any, Dict[str, Any]]:
        children: List[List[Any]] = [[] for _ in range(n)]
        # Children in str-order: visit rows by str rank so appends land
        # pre-sorted.
        for row in csr.rank_to_row.tolist():
            p = parent_list[row]
            if p >= 0:
                children[p].append(nodes[row])
        t1 = e_root + depth_max + 1
        return {
            nodes[row]: {
                "parent": None if row == root_row else nodes[parent_list[row]],
                "depth": dist_list[row],
                "children": tuple(children[row]),
                "tree_depth": depth_max,
                "t1": t1,
            }
            for row in range(n)
        }

    # The driver's return values, straight from the arrays (cheaper
    # than materialising the full per-node output dicts).
    parents = {
        nodes[row]: None if row == root_row else nodes[parent_list[row]]
        for row in range(n)
    }
    return parents, dict(zip(nodes, dist_list)), RunRecord(metrics, build_outputs)
