"""Algorithm ``DOM_Partition(k)`` (§3.2.3, Fig. 7) — the O(k log* n)
tree partitioning.

``DOM_Partition_2`` pays O(k) physical rounds per virtual round in
*every* iteration because some cluster may already have Θ(k) diameter.
The fast variant caps phase ``i`` at O(2^i) time by letting only
clusters of radius at most ``2 * 2^i`` participate; larger clusters wait
in a set ``W`` and are returned to the forest at the start of the next
phase (step 3-I).  A participating cluster whose tree became a
singleton (all neighbours waiting) merges *onto* a waiting neighbour at
a node ``w`` of depth at most ``k`` (step 3-IV), which bounds the depth
growth; clusters whose depth reaches ``k + 1`` are moved to the output
by the standing depth test.  Total time: ``sum_i O(2^i log* n)`` =
``O(k log* n)`` (Lemma 3.8).

Guarantees (Lemma 3.7): the output is a partition with
``|C| >= k + 1`` and ``Rad(C) <= 5k + 2`` for every cluster.

Reproduction notes:

* R2 (see :mod:`repro.core.partition_bounded`) applies here too: the
  post-loop flush moves surviving clusters (live and waiting) to the
  output / side set.
* R3: the paper's per-phase accounting is reproduced by charging each
  phase ``i``: the participation probe (O(2^i)), the 3-IV handshake
  (O(2^i)), and the BalancedDOM run at ``2 r + 1`` physical rounds per
  virtual round where ``r <= 2 * 2^i`` is the maximum *participating*
  radius — exactly the cap the paper engineers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Cluster, Partition
from ..graphs.validation import require_acyclic_parents
from ..sim.runner import StagedRun
from .partition_bounded import _merge_side_set
from .partition_common import (
    ClusterForest,
    log2_phase_count,
    recompute_top,
    run_balanced_dom_on_forest,
    singleton_clusters,
)


def dom_partition(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
    backend: str = "reference",
) -> Tuple[Partition, StagedRun]:
    """Run the fast ``DOM_Partition(k)`` on a rooted tree, n >= k + 1.

    ``backend="dense"`` runs :func:`_dom_partition_dense`, an
    array-primary port of this loop whose cluster state lives in numpy
    owner/status arrays (see its docstring).  It produces the identical
    partition and the identical stage accounting: the BalancedDOM stage
    reports the same virtual round count, and the physical-round charge
    reuses the participation probe's depth measurements (the contracted
    forest's max radius is the max participating cluster depth).  Under
    an active observation the reference loop runs instead, as for every
    dense entry point: no dense kernel emits events.  A ``t_parent``
    with a cycle raises ``ValueError`` on every route.
    """
    if backend not in ("reference", "dense"):
        raise ValueError(f"unknown backend {backend!r}")
    if tree.num_nodes < k + 1:
        raise ValueError(
            f"DOM_Partition requires n >= k + 1 (n={tree.num_nodes}, k={k})"
        )
    if backend == "dense":
        from ..obs.session import current_observation
        from ..sim.dense import require_numpy

        require_numpy()
        if current_observation() is None:
            return _dom_partition_dense(tree, root, t_parent, k)
    require_acyclic_parents(t_parent)

    forest = ClusterForest(tree, root)
    depth = forest.depth
    staged = StagedRun()
    live: Dict[Any, Set[Any]] = singleton_clusters(tree)
    waiting: Dict[Any, Set[Any]] = {}
    out: Dict[Any, Set[Any]] = {}
    side: List[Set[Any]] = []

    for phase in range(1, log2_phase_count(k) + 1):
        radius_cap = 2 * (1 << phase)
        # (3-I) Return the waiting clusters to the forest.
        live.update(waiting)
        waiting = {}
        if not live:
            break
        # Standing depth test (the §3.2.3 implementation note): clusters
        # whose depth counters exceeded k move to the output.
        for top in sorted((top for top in live if depth[top] >= k + 1), key=str):
            out[top] = live.pop(top)
        # (3-II/3-III) Participation probe: clusters with radius above
        # 2 * 2^i wait this phase out.  Cost: a probe to depth 2 * 2^i
        # and back.
        staged.add_rounds(f"probe-{phase}", 2 * radius_cap + 1)
        for top in sorted((top for top in live if depth[top] > radius_cap), key=str):
            waiting[top] = live.pop(top)
        # (3-IV) Lone participating clusters merge onto an eligible
        # waiting neighbour, or retire to the side set.
        neighbors = forest.contract(live)
        lone = sorted((top for top in live if not neighbors[top]), key=str)
        _absorb_lone_clusters(tree, live, waiting, side, k, staged, phase, lone, forest)
        for top in lone:
            del neighbors[top]
        if not live:
            continue
        # (3a) BalancedDOM on the participating forest, then contract.
        # Absorption only removed clusters, so the probe's depths of the
        # participants are the contracted forest's cluster radii.
        center_map, rounds, radius = run_balanced_dom_on_forest(
            tree, live, t_parent, forest.radius(live), forest, neighbors
        )
        cost = rounds * (2 * min(radius, radius_cap) + 1)
        staged.add_rounds(f"balanced-{phase}", cost)
        live = forest.merge(live, center_map)
        # (3b) Deep merged clusters move to the output.
        for top in sorted((top for top in live if depth[top] >= k + 1), key=str):
            out[top] = live.pop(top)

    # Post-loop flush (R2): everything left joins the output if large
    # enough, else the side set.
    for pool in (live, waiting):
        for top in sorted(pool, key=str):
            members = pool[top]
            if len(members) >= k + 1:
                out[top] = members
            else:
                side.append(members)
                forest.retire(top, members)
    # (4) Dispose of the side set as in DOM_Partition_2.
    _merge_side_set(tree, out, side, k, forest.owner)
    partition = Partition(
        Cluster(recompute_top(members, forest.t_depth), set(members))
        for members in out.values()
    )
    return partition, staged


# Cluster status codes for the dense driver (meaningful at top rows).
_LIVE, _WAITING, _OUT = 0, 1, 2


def _dom_partition_dense(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
) -> Tuple[Partition, StagedRun]:
    """Array-primary ``DOM_Partition(k)``.

    The reference loop keeps cluster state as dicts of member sets and
    a python owner map and depth record (:class:`ClusterForest`), so
    every phase still moves members and visits clusters one at a time
    in python.  Here the authoritative state is two arrays over the CSR
    rows:

    * ``owner[r]`` — the row of the cluster top owning node ``r``
      (−1 while a node sits in the side set);
    * ``status[owner[r]]`` — the owning cluster's pool (live, waiting,
      or output).  Status cells are meaningful only at current top
      rows; stale values at other rows are never consulted because
      every query goes through ``owner``.

    Each phase then costs a handful of whole-forest passes: one
    ``forest_heights`` sweep serves both the standing depth test and
    the participation probe (removing a cluster does not change any
    other cluster's depth), lone-cluster detection is a single edge
    scan, the BalancedDOM stage runs on the top rows directly
    (:func:`repro.sim.dense.forest.balanced_rows`), and contraction is
    a segmented argmin over ``(T-depth, str)`` keys.  Dict-of-sets
    views are materialized only at the two reference-semantics
    boundaries — step 3-IV absorption (rare, and the sets involved are
    small) and the final side-set disposal — so the python cost scales
    with the clusters touched, not with n.  Output and stage accounting
    are identical to the reference loop, element for element.
    """
    from ..sim.dense.core import np
    from ..sim.dense.csr import csr_adjacency
    from ..sim.dense.forest import balanced_rows
    from ..sim.dense.kernels import _edge_endpoints, forest_heights

    csr = csr_adjacency(tree)
    n = csr.n
    nodes = csr.nodes
    index = csr.index
    parent_row = np.full(n, -1, dtype=np.int64)
    for v, p in t_parent.items():
        if p is not None and v in index:
            parent_row[index[v]] = index[p]
    grown = forest_heights(parent_row, n)
    if grown is None:
        raise ValueError("parent map contains a cycle")
    _heights, t_depth = grown
    # recompute_top minimises (T-depth, str(id)); both components are
    # < n, so one int64 key linearises the pair, and str_rank's
    # uniqueness makes the key invertible through rank_to_row.
    top_key = t_depth * n + csr.str_rank
    id_bound = max(
        tree.num_nodes, max((v + 1 for v in tree.nodes), default=1)
    )
    edges_s, edges_t = _edge_endpoints(csr)
    sentinel = np.iinfo(np.int64).max

    staged = StagedRun()
    owner = np.arange(n, dtype=np.int64)
    status = np.full(n, _LIVE, dtype=np.int8)
    side: List[Set[Any]] = []

    def pool_rows(flag: int) -> Any:
        safe = np.maximum(owner, 0)
        return np.flatnonzero((owner >= 0) & (status[safe] == flag))

    def top_depths(rows: Any) -> Any:
        """Depth of every cluster over ``rows``, indexed by top row.

        Each cluster is a parent-connected subtree of ``T`` whose
        shallowest member is its top, so the cluster-restricted parent
        forest's depth equals the reference's recorded depth.
        """
        cp = np.full(n, -1, dtype=np.int64)
        pr = parent_row[rows]
        keep = np.zeros(rows.shape[0], dtype=bool)
        has_parent = pr >= 0
        keep[has_parent] = (
            owner[pr[has_parent]] == owner[rows[has_parent]]
        )
        cp[rows[keep]] = pr[keep]
        sub = forest_heights(cp, n)
        assert sub is not None  # subforests of a tree are acyclic
        depth = sub[1]
        acc = np.zeros(n, dtype=np.int64)
        np.maximum.at(acc, owner[rows], depth[rows])
        return acc

    for phase in range(1, log2_phase_count(k) + 1):
        radius_cap = 2 * (1 << phase)
        # (3-I) Return the waiting clusters to the forest.
        status[status == _WAITING] = _LIVE
        rows = pool_rows(_LIVE)
        if rows.size == 0:
            break
        # Standing depth test + participation probe: one depth pass
        # serves both, since removal leaves other depths alone.
        depth_by_top = top_depths(rows)
        tops = np.unique(owner[rows])
        status[tops[depth_by_top[tops] >= k + 1]] = _OUT
        staged.add_rounds(f"probe-{phase}", 2 * radius_cap + 1)
        shallow = tops[depth_by_top[tops] < k + 1]
        status[shallow[depth_by_top[shallow] > radius_cap]] = _WAITING
        parts = shallow[depth_by_top[shallow] <= radius_cap]
        # (3-IV) Lone participating clusters: one scan over the edge
        # list finds every cluster with no live neighbour.
        if parts.size:
            so, to = owner[edges_s], owner[edges_t]
            live_edge = (
                (so >= 0)
                & (to >= 0)
                & (so != to)
                & (status[np.maximum(so, 0)] == _LIVE)
                & (status[np.maximum(to, 0)] == _LIVE)
            )
            touching = np.zeros(n, dtype=bool)
            touching[so[live_edge]] = True
            lone_rows = parts[~touching[parts]]
            if lone_rows.size:
                # Absorption semantics stay with the reference helper,
                # which only ever touches the lone clusters themselves
                # and the waiting clusters adjacent to them — so only
                # those few (small) clusters are materialized, and only
                # their rows written back.
                lone_mask = np.zeros(n, dtype=bool)
                lone_mask[lone_rows] = True
                live_rows = pool_rows(_LIVE)
                lone_members = live_rows[lone_mask[owner[live_rows]]]
                _s2, t2 = csr.gather_edges(lone_members)
                near = owner[t2]
                near_waiting = (near >= 0) & (
                    status[np.maximum(near, 0)] == _WAITING
                )
                host_tops = np.unique(near[near_waiting])
                host_mask = np.zeros(n, dtype=bool)
                host_mask[host_tops] = True
                waiting_rows = pool_rows(_WAITING)
                host_members = waiting_rows[host_mask[owner[waiting_rows]]]
                live_d = _group_rows(np, csr, owner, lone_members)
                waiting_d = _group_rows(np, csr, owner, host_members)
                lone_rows = lone_rows[np.argsort(csr.str_rank[lone_rows])]
                lone = [nodes[r] for r in lone_rows.tolist()]
                side_before = len(side)
                _absorb_lone_clusters(
                    tree, live_d, waiting_d, side, k, staged, phase, lone,
                    ClusterForest.hosts(tree, waiting_d),
                )
                for top, members in waiting_d.items():
                    top_row = index[top]
                    member_rows = np.fromiter(
                        (index[v] for v in members),
                        dtype=np.int64,
                        count=len(members),
                    )
                    owner[member_rows] = top_row
                for members in side[side_before:]:
                    for v in members:
                        owner[index[v]] = -1
                parts = np.setdiff1d(parts, lone_rows, assume_unique=True)
        if parts.size == 0:
            continue
        # (3a) BalancedDOM on the contracted participating forest.
        # ``parts`` is ascending, and CSR rows are in ascending id
        # order, so ids[parts] is exactly the contracted node order the
        # virtual network would use.
        bids = csr.ids[parts]
        pr = parent_row[parts]
        host = np.full(parts.shape[0], -1, dtype=np.int64)
        has_parent = pr >= 0
        host[has_parent] = owner[pr[has_parent]]
        host_live = (host >= 0) & (
            status[np.maximum(host, 0)] == _LIVE
        )
        bparent = np.full(parts.shape[0], -1, dtype=np.int64)
        hosted = np.flatnonzero(host_live)
        bparent[hosted] = np.searchsorted(parts, host[hosted])
        dominator_ids, virtual_rounds = balanced_rows(bids, bparent, id_bound)
        # Absorption only removed clusters, so the probe depths of the
        # surviving participants are exactly the contracted forest's
        # cluster radii.
        max_radius = int(depth_by_top[parts].max())
        cost = virtual_rounds * (2 * min(max_radius, radius_cap) + 1)
        staged.add_rounds(f"balanced-{phase}", cost)
        # Contract: regroup members under the dominator's cluster, then
        # re-anchor each merged cluster at its (T-depth, str)-minimum
        # member — a segmented argmin in place of ClusterForest.merge.
        dom_rows = parts[np.searchsorted(bids, dominator_ids)]
        dom_of = np.empty(n, dtype=np.int64)
        dom_of[parts] = dom_rows
        rows = pool_rows(_LIVE)
        node_dom = dom_of[owner[rows]]
        best = np.full(n, sentinel, dtype=np.int64)
        np.minimum.at(best, node_dom, top_key[rows])
        groups = np.flatnonzero(best < sentinel)
        new_tops = csr.rank_to_row[best[groups] % n]
        remap = np.empty(n, dtype=np.int64)
        remap[groups] = new_tops
        owner[rows] = remap[node_dom]
        status[new_tops] = _LIVE
        # (3b) Deep merged clusters move to the output.
        rows = pool_rows(_LIVE)
        if rows.size:
            depth_by_top = top_depths(rows)
            tops = np.unique(owner[rows])
            status[tops[depth_by_top[tops] >= k + 1]] = _OUT

    # Post-loop flush (R2): everything left joins the output if large
    # enough, else the side set — live pool first, tops in str order,
    # matching the reference's side-list ordering.
    for flag in (_LIVE, _WAITING):
        rows = pool_rows(flag)
        if rows.size == 0:
            continue
        sizes = np.zeros(n, dtype=np.int64)
        np.add.at(sizes, owner[rows], 1)
        tops = np.unique(owner[rows])
        status[tops[sizes[tops] >= k + 1]] = _OUT
        small = tops[sizes[tops] < k + 1]
        if small.size:
            small = small[np.argsort(csr.str_rank[small])]
            small_mask = np.zeros(n, dtype=bool)
            small_mask[small] = True
            small_rows = rows[small_mask[owner[rows]]]
            members_of: Dict[int, Set[Any]] = {
                int(t): set() for t in small.tolist()
            }
            for r in small_rows.tolist():
                members_of[int(owner[r])].add(nodes[r])
            for t in small.tolist():
                side.append(members_of[int(t)])
            owner[small_rows] = -1

    out = _pool_dict(np, csr, owner, status, _OUT)
    _dispose_side_dense(tree, csr, owner, out, side, k)
    # Re-anchor every output cluster at once: a segmented argmin over
    # the same (T-depth, str) key recompute_top minimises.
    rows = np.flatnonzero(owner >= 0)
    best = np.full(n, sentinel, dtype=np.int64)
    np.minimum.at(best, owner[rows], top_key[rows])
    present = np.flatnonzero(best < sentinel)
    winner_rows = csr.rank_to_row[best[present] % n]
    final_top = {
        nodes[int(g)]: nodes[int(w)]
        for g, w in zip(present.tolist(), winner_rows.tolist())
    }
    partition = Partition(
        Cluster._owning(final_top[top], members)
        for top, members in out.items()
    )
    return partition, staged


def _pool_dict(
    np: Any, csr: Any, owner: Any, status: Any, flag: int
) -> Dict[Any, Set[Any]]:
    """Materialize one pool of the dense driver as top -> member set."""
    safe = np.maximum(owner, 0)
    rows = np.flatnonzero((owner >= 0) & (status[safe] == flag))
    return _group_rows(np, csr, owner, rows)


def _group_rows(
    np: Any, csr: Any, owner: Any, rows: Any
) -> Dict[Any, Set[Any]]:
    """Group ``rows`` by their owning top: top node -> member set."""
    result: Dict[Any, Set[Any]] = {}
    if rows.size == 0:
        return result
    order = np.argsort(owner[rows], kind="stable")
    rows = rows[order]
    owners = owner[rows]
    cuts = np.flatnonzero(np.diff(owners)) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    ends = np.concatenate((cuts, [rows.size])).tolist()
    row_list = rows.tolist()
    owner_list = owners.tolist()
    nodes = csr.nodes
    for a, b in zip(starts, ends):
        result[nodes[owner_list[a]]] = {nodes[r] for r in row_list[a:b]}
    return result


def _dispose_side_dense(
    tree: Graph,
    csr: Any,
    owner: Any,
    out: Dict[Any, Set[Any]],
    side: List[Set[Any]],
    k: int,
) -> None:
    """Step 4 for the dense driver: :func:`_merge_side_set` semantics,
    but membership lookups go through the ``owner`` array (which is
    kept current) instead of rebuilding a python member -> top map over
    all n nodes."""
    if not side:
        return
    index = csr.index
    nodes = csr.nodes
    for members in side:
        if len(members) > k:
            top = min(members, key=str)
            out[top] = set(members)
            top_row = index[top]
            for v in members:
                owner[index[v]] = top_row
    for members in side:
        if len(members) > k:
            continue
        target: Optional[Any] = None
        for v in sorted(members, key=str):
            for u in sorted(tree.neighbors(v), key=str):
                row = int(owner[index[u]])
                if row >= 0:
                    target = nodes[row]
                    break
            if target is not None:
                break
        if target is None:
            raise RuntimeError(
                "side cluster has no neighbouring output cluster; "
                "Lemma 3.5's argument is violated"
            )
        out[target] |= members
        top_row = index[target]
        for v in members:
            owner[index[v]] = top_row


def _absorb_lone_clusters(
    tree: Graph,
    live: Dict[Any, Set[Any]],
    waiting: Dict[Any, Set[Any]],
    side: List[Set[Any]],
    k: int,
    staged: StagedRun,
    phase: int,
    lone_tops: List[Any],
    forest: ClusterForest,
) -> None:
    """Step 3-IV: a participating cluster with no participating
    neighbour merges onto a waiting neighbour at a node ``w`` with
    ``Depth(w) <= k``; with no eligible host it moves to the side set.
    ``lone_tops`` lists those clusters in str order.  ``forest`` names
    the waiting cluster owning ``w`` and ``w``'s depth in it, and
    follows each move.
    """
    if not lone_tops:
        return
    staged.add_rounds(f"absorb-{phase}", 2 * (1 << phase) + 2)
    owner = forest.owner
    for top in lone_tops:
        members = live.pop(top)
        host_top: Optional[Any] = None
        for v in sorted(members, key=str):
            for w in sorted(tree.neighbors(v), key=str):
                candidate = owner.get(w)
                if candidate in waiting and (
                    forest.depth_at(candidate, waiting[candidate], w) <= k
                ):
                    host_top = candidate
                    break
            if host_top is not None:
                break
        if host_top is None:
            side.append(members)
            forest.retire(top, members)
        else:
            waiting[host_top] |= members
            forest.absorb(host_top, waiting[host_top], top, members)
