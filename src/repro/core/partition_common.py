"""Shared bookkeeping for the tree-partition algorithms of §3.2.

The paper's partition algorithms repeatedly (1) run ``BalancedDOM`` on a
*contracted* tree whose nodes are the current clusters, and (2) merge
clusters along the resulting star partition.  The distributed
implementation appoints a centre per cluster and relays through cluster
members (§3.2.1); its cost is charged as
:class:`repro.sim.virtual.VirtualNetwork` charges it.  This module holds
the drivers' one BalancedDOM entry point,
:func:`run_balanced_dom_on_forest`, and the cluster bookkeeping they
share:

* clusters are connected subtrees of the input tree ``T``, identified by
  their *top* (the member closest to ``T``'s root) — uniqueness follows
  from connectivity in a tree;
* the contracted forest's orientation is induced by ``T``'s: the parent
  of cluster ``C`` is the cluster containing ``parent_T(top(C))``;
* each driver keeps its clusters in one :class:`ClusterForest` through
  its loop.  Per-cluster depths are recorded when a cluster's membership
  changes and read from that record afterwards, as the paper keeps its
  ``Depth`` counters (§3.2.3): a merged cluster's top is its shallowest
  member, so its depth is its deepest member's T-depth minus the top's.
  Only a step 3-IV host, whose top may not be its shallowest member, is
  measured by BFS inside its member set.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Cluster, Partition
from ..obs.session import current_observation
from ..sim.virtual import ContractedGraph, VirtualNetwork


def singleton_clusters(tree: Graph) -> Dict[Any, Set[Any]]:
    """The initial partition: every node its own cluster."""
    return {v: {v} for v in tree.nodes}


def cluster_depths(
    tree: Graph, members: Set[Any], top: Any
) -> Dict[Any, int]:
    """Depths of members below ``top`` inside the T-induced subtree."""
    if len(members) == 1:
        # Early phases are dominated by singleton clusters; skip the
        # BFS scaffolding (the lone member must be the top).
        if top not in members:
            raise ValueError(f"cluster with top {top} is not connected in T")
        return {top: 0}
    depth = {top: 0}
    queue = deque([top])
    while queue:
        v = queue.popleft()
        for u in tree.neighbors(v):
            if u in members and u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    if set(depth) != set(members):
        raise ValueError(f"cluster with top {top} is not connected in T")
    return depth


def tops_by_member(clusters: Dict[Any, Set[Any]]) -> Dict[Any, Any]:
    owner: Dict[Any, Any] = {}
    for top, members in clusters.items():
        for v in members:
            if v in owner:
                raise ValueError(f"node {v} appears in two clusters")
            owner[v] = top
    return owner


def recompute_top(
    members: Set[Any], t_depth: Dict[Any, int]
) -> Any:
    """The member closest to T's root (smallest T-depth; ties by id)."""
    return min(members, key=lambda v: (t_depth[v], str(v)))


class ClusterForest:
    """One driver's clusters, kept through its loop.

    The drivers hold their pools (live, waiting, output) as dicts of
    top -> member set.  This object keeps what the pools share:

    * ``owner`` maps every member of a pooled cluster to its top.
      Merges, 3-IV absorption and removal to the side set update it;
      nothing rebuilds it.
    * ``depth`` records each cluster's depth below its top.  A merged
      cluster's top is its shallowest member, so its depth is its
      deepest member's T-depth minus the top's; the merge is connected
      iff every part's shallowest member but the new top has its
      T-parent inside the union.
    * ``measured`` holds the 3-IV hosts, whose top may not be their
      shallowest member, with their BFS depths, measured once per
      membership.

    ``T`` is ``tree`` rooted at ``root`` (the BFS tree ``t_depth`` comes
    from); ``tree`` must be a tree.
    """

    def __init__(self, tree: Graph, root: Any):
        t_depth = {root: 0}
        up: Dict[Any, Optional[Any]] = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in tree.neighbors(v):
                if u not in t_depth:
                    t_depth[u] = t_depth[v] + 1
                    up[u] = v
                    queue.append(u)
        if len(t_depth) != tree.num_nodes or tree.num_edges != tree.num_nodes - 1:
            raise ValueError("DOM_Partition needs a tree")
        self.tree = tree
        self.t_depth = t_depth
        self.up = up
        nodes = tree.nodes
        self.owner: Dict[Any, Any] = dict(zip(nodes, nodes))
        self.depth: Dict[Any, int] = dict.fromkeys(nodes, 0)
        #: Each unmeasured cluster's deepest member T-depth.
        self.deepest: Dict[Any, int] = dict(t_depth)
        self.measured: Dict[Any, Optional[Dict[Any, int]]] = {}

    @classmethod
    def hosts(cls, tree: Graph, clusters: Dict[Any, Set[Any]]) -> "ClusterForest":
        """``clusters`` alone, every one measured by BFS when first read:
        the view of its waiting clusters the dense driver hands to step
        3-IV."""
        forest = cls.__new__(cls)
        forest.tree = tree
        forest.owner = tops_by_member(clusters)
        forest.depth = {}
        forest.measured = dict.fromkeys(clusters)
        return forest

    def radius(self, clusters: Dict[Any, Set[Any]]) -> int:
        """The largest recorded depth among ``clusters``."""
        depth = self.depth
        return max(depth[top] for top in clusters)

    def depth_at(self, top: Any, members: Set[Any], v: Any) -> int:
        """Member ``v``'s depth below ``top``."""
        if top not in self.measured:
            return self.t_depth[v] - self.t_depth[top]
        depths = self.measured[top]
        if depths is None:
            depths = self.measured[top] = cluster_depths(self.tree, members, top)
        return depths[v]

    def contract(self, clusters: Dict[Any, Set[Any]]) -> Dict[Any, Set[Any]]:
        """The contracted adjacency of ``clusters``.  Every T-edge between
        two clusters joins one's shallowest member to its T-parent, so
        one step per cluster finds them all."""
        owner, up, measured = self.owner, self.up, self.measured
        neighbors: Dict[Any, Set[Any]] = {top: set() for top in clusters}
        for top, members in clusters.items():
            head = recompute_top(members, self.t_depth) if top in measured else top
            other = owner.get(up[head])
            if other in neighbors and other != top:
                neighbors[top].add(other)
                neighbors[other].add(top)
        return neighbors

    def merge(
        self, clusters: Dict[Any, Set[Any]], center_map: Dict[Any, Any]
    ) -> Dict[Any, Set[Any]]:
        """Union ``clusters`` along a star partition (top -> dominator
        top), recording each merged cluster's top and depth.  A node
        that stops being a top never becomes one again (its new top is
        shallower), so the old tops' records are left behind."""
        groups: Dict[Any, List[Any]] = {}
        for top, dominator_top in center_map.items():
            groups.setdefault(dominator_top, []).append(top)
        owner, up, t_depth = self.owner, self.up, self.t_depth
        depth, deepest_of, measured = self.depth, self.deepest, self.measured
        merged: Dict[Any, Set[Any]] = {}
        for tops in groups.values():
            members: Set[Any] = set()
            heads = []
            deepest = 0
            for top in tops:
                part = clusters[top]
                members |= part
                if top in measured:
                    del measured[top]
                    heads.append(recompute_top(part, t_depth))
                    low = max(t_depth[v] for v in part)
                else:
                    heads.append(top)
                    low = deepest_of[top]
                if low > deepest:
                    deepest = low
            if len(heads) == 1:
                new_top = heads[0]
            else:
                new_top = min(heads, key=lambda v: (t_depth[v], str(v)))
            for top in tops:
                if top != new_top:
                    for v in clusters[top]:
                        owner[v] = new_top
            for head in heads:
                if head != new_top and owner.get(up[head]) != new_top:
                    raise ValueError(
                        f"cluster with top {new_top} is not connected in T"
                    )
            deepest_of[new_top] = deepest
            depth[new_top] = deepest - t_depth[new_top]
            merged[new_top] = members
        return merged

    def absorb(
        self, host: Any, host_members: Set[Any], top: Any, members: Set[Any]
    ) -> None:
        """Step 3-IV: the cluster ``top`` joined the waiting ``host``,
        whose members ``host_members`` now include it; the host is
        measured again."""
        for v in members:
            self.owner[v] = host
        self.measured.pop(top, None)
        depths = self.measured[host] = cluster_depths(self.tree, host_members, host)
        self.depth[host] = max(depths.values())

    def retire(self, top: Any, members: Set[Any]) -> None:
        """The cluster ``top`` left the pools for the side set."""
        for v in members:
            self.owner.pop(v, None)
        self.measured.pop(top, None)


def contracted_parent_map(
    t_parent: Dict[Any, Optional[Any]],
    clusters: Dict[Any, Set[Any]],
    owner: Optional[Dict[Any, Any]] = None,
) -> Dict[Any, Optional[Any]]:
    """Orientation of the contracted forest induced by T's rooting.

    The parent of cluster ``C`` is the cluster owning ``parent_T(top(C))``
    when that cluster is present, else ``None`` (forest root).  ``owner``
    may map members of other clusters too.
    """
    if owner is None:
        owner = tops_by_member(clusters)
    parent: Dict[Any, Optional[Any]] = {}
    for top in clusters:
        other = owner.get(t_parent.get(top))
        parent[top] = other if other in clusters else None
    return parent


def build_contracted_forest(
    tree: Graph, clusters: Dict[Any, Set[Any]]
) -> ContractedGraph:
    """Contract the live clusters over the T-induced subgraph on their
    members (removed clusters simply don't appear, splitting the tree
    into a forest exactly as the paper describes)."""
    live_members = set()
    for members in clusters.values():
        live_members |= members
    base = tree.subgraph(live_members)
    return ContractedGraph(base, clusters)


def contracted_neighbors(
    tree: Graph, clusters: Dict[Any, Set[Any]], owner: Dict[Any, Any]
) -> Dict[Any, Set[Any]]:
    """Adjacency of :func:`build_contracted_forest`, without building it:
    two clusters are adjacent iff a tree edge joins their members."""
    neighbors: Dict[Any, Set[Any]] = {}
    for top, members in clusters.items():
        adjacent = neighbors[top] = set()
        for v in members:
            for u in tree.neighbors(v):
                other = owner.get(u)
                if other is not None and other != top:
                    adjacent.add(other)
    return neighbors


def run_balanced_dom_on_forest(
    tree: Graph,
    clusters: Dict[Any, Set[Any]],
    t_parent: Dict[Any, Optional[Any]],
    radius: Optional[int] = None,
    forest: Optional[ClusterForest] = None,
    neighbors: Optional[Dict[Any, Set[Any]]] = None,
) -> Tuple[Dict[Any, Any], int, int]:
    """Run the star-partition dominating set on the contracted forest.

    Returns (top -> dominator-top map, virtual rounds, maximum cluster
    radius); one virtual round costs ``2 * radius + 1`` physical rounds
    (:class:`~repro.sim.virtual.VirtualNetwork`).

    Unobserved, :func:`~repro.core.small_dom_set.direct_small_dom_set`
    computes the run from the contracted adjacency and the clusters'
    depths.  A driver passes its records: its :class:`ClusterForest`,
    the adjacency of ``clusters`` that :meth:`ClusterForest.contract`
    built, and their largest depth as ``radius``.  Called without them,
    the helper builds a member -> top map, scans ``clusters``' tree
    edges and measures every cluster by BFS.  Under an observation, or
    when a cluster's contracted parent is not one of its contracted
    neighbours, ``SmallDomSetProgram`` runs on a
    :class:`~repro.sim.virtual.VirtualNetwork` instead.
    """
    from .small_dom_set import SmallDomSetProgram, direct_small_dom_set

    owner = tops_by_member(clusters) if forest is None else forest.owner
    contracted_parents = contracted_parent_map(t_parent, clusters, owner)
    # Contracted node ids are centre ids from the *original* tree, so
    # the colouring schedule must be derived from the original id space.
    id_bound = max(
        tree.num_nodes, max((v + 1 for v in tree.nodes), default=1)
    )
    if current_observation() is None:
        if neighbors is None:
            neighbors = contracted_neighbors(tree, clusters, owner)
        if radius is None:
            radius = max(
                (max(cluster_depths(tree, members, top).values())
                 for top, members in clusters.items()),
                default=0,
            )
        run = direct_small_dom_set(neighbors, contracted_parents, id_bound)
        if run is not None:
            return run[0], run[2], radius
    virtual = VirtualNetwork(build_contracted_forest(tree, clusters))
    virtual.run(
        lambda ctx: SmallDomSetProgram(ctx, contracted_parents, id_bound=id_bound)
    )
    return (
        virtual.output_field("dominator"),
        virtual.virtual_rounds,
        virtual.round_cost // 2,
    )


def clusters_to_partition(
    tree: Graph, clusters: Dict[Any, Set[Any]]
) -> Partition:
    return Partition(
        Cluster(top, set(members)) for top, members in clusters.items()
    )


def log2_phase_count(k: int) -> int:
    """The paper's iteration count ``ceil(log2(k + 1))``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    count = 0
    while (1 << count) < k + 1:
        count += 1
    return count
