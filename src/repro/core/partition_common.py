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
* per-cluster depths are measured by BFS inside the member set from the
  top, matching the ``Depth`` counters the paper maintains (§3.2.3).
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


def cluster_depth(tree: Graph, members: Set[Any], top: Any) -> int:
    """Maximum member depth below the top (the paper's cluster depth)."""
    return max(cluster_depths(tree, members, top).values())


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


def contracted_parent_map(
    t_parent: Dict[Any, Optional[Any]],
    clusters: Dict[Any, Set[Any]],
) -> Dict[Any, Optional[Any]]:
    """Orientation of the contracted forest induced by T's rooting.

    The parent of cluster ``C`` is the cluster owning ``parent_T(top(C))``
    when that cluster is present, else ``None`` (forest root).
    """
    owner = tops_by_member(clusters)
    parent: Dict[Any, Optional[Any]] = {}
    for top in clusters:
        t_par = t_parent.get(top)
        if t_par is not None and t_par in owner:
            parent[top] = owner[t_par]
        else:
            parent[top] = None
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
    tree: Graph, clusters: Dict[Any, Set[Any]]
) -> Dict[Any, Set[Any]]:
    """Adjacency of :func:`build_contracted_forest`, without building it:
    two clusters are adjacent iff a tree edge joins their members."""
    owner = tops_by_member(clusters)
    neighbors: Dict[Any, Set[Any]] = {}
    for top, members in clusters.items():
        adjacent = neighbors[top] = set()
        for v in members:
            for u in tree.neighbors(v):
                other = owner.get(u)
                if other is not None and other != top:
                    adjacent.add(other)
    return neighbors


def merge_by_center_map(
    clusters: Dict[Any, Set[Any]],
    center_map: Dict[Any, Any],
    t_depth: Dict[Any, int],
) -> Dict[Any, Set[Any]]:
    """Union clusters along a star partition (top -> dominator top)."""
    groups: Dict[Any, List[Any]] = {}
    for top, dominator_top in center_map.items():
        groups.setdefault(dominator_top, []).append(top)
    merged: Dict[Any, Set[Any]] = {}
    for tops in groups.values():
        members: Set[Any] = set()
        for top in tops:
            members |= clusters[top]
        new_top = recompute_top(members, t_depth)
        merged[new_top] = members
    return merged


def run_balanced_dom_on_forest(
    tree: Graph,
    clusters: Dict[Any, Set[Any]],
    t_parent: Dict[Any, Optional[Any]],
    radius: Optional[int] = None,
) -> Tuple[Dict[Any, Any], int, int]:
    """Run the star-partition dominating set on the contracted forest.

    Returns (top -> dominator-top map, virtual rounds, maximum cluster
    radius); one virtual round costs ``2 * radius + 1`` physical rounds
    (:class:`~repro.sim.virtual.VirtualNetwork`).  A caller that has
    measured every cluster's depth passes their maximum as ``radius``.

    Unobserved, :func:`~repro.core.small_dom_set.direct_small_dom_set`
    computes the run from the contracted adjacency and the clusters'
    depths.  Under an observation, or when a cluster's contracted parent
    is not one of its contracted neighbours, ``SmallDomSetProgram`` runs
    on a :class:`~repro.sim.virtual.VirtualNetwork` instead.
    """
    from .small_dom_set import SmallDomSetProgram, direct_small_dom_set

    contracted_parents = contracted_parent_map(t_parent, clusters)
    # Contracted node ids are centre ids from the *original* tree, so
    # the colouring schedule must be derived from the original id space.
    id_bound = max(
        tree.num_nodes, max((v + 1 for v in tree.nodes), default=1)
    )
    if current_observation() is None:
        neighbors = contracted_neighbors(tree, clusters)
        if radius is None:
            radius = max(
                (cluster_depth(tree, members, top)
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
