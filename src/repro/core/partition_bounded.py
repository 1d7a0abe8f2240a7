"""Algorithm ``DOM_Partition_2(k)`` (§3.2.2, Fig. 6).

Like ``DOM_Partition_1`` but clusters whose spanning tree reaches depth
``k + 1`` are erased from the working tree (splitting it into a forest)
and moved to the output, so cluster radii stay ``O(k)`` instead of
``O(k^2)``.  Lone clusters whose neighbours were all erased are parked
in a side set ``S`` and merged into neighbouring output clusters at the
very end (step 4) — at most one such "star merge", which keeps the
radius bound at ``5k + 2``.

Guarantees (Lemmas 3.5 / 3.6): the output is a partition; every cluster
has ``|C| >= k + 1`` and ``Rad(C) <= 5k + 2``.  Running time is
``O(k log k log* n)`` — each of the ``ceil(log2(k + 1))`` iterations
pays O(log* n) virtual rounds at O(k) physical rounds each.

Reproduction note (R2): Lemma 3.5 asserts the working forest is empty
after the last iteration, but removal is triggered by cluster *depth*
``>= k + 1`` while the doubling argument bounds cluster *size*; a
cluster of k+1 or more nodes with depth <= k survives the loop.  The
driver therefore flushes surviving clusters to the output after the
loop — they already satisfy both output properties (size >= k + 1 by
doubling, radius <= 3k + 1 by the Lemma 3.6 argument), so the paper's
guarantees are unaffected.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.distances import bfs_distances
from ..graphs.graph import Graph
from ..graphs.partition import Cluster, Partition
from ..sim.runner import StagedRun
from .partition_common import (
    cluster_depth,
    log2_phase_count,
    merge_by_center_map,
    run_balanced_dom_on_forest,
    singleton_clusters,
    tops_by_member,
)


def dom_partition_2(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
) -> Tuple[Partition, StagedRun]:
    """Run ``DOM_Partition_2(k)`` on a rooted tree of size >= k + 1."""
    if tree.num_nodes < k + 1:
        raise ValueError(
            f"DOM_Partition_2 requires n >= k + 1 (n={tree.num_nodes}, k={k})"
        )
    t_depth = bfs_distances(tree, root)
    staged = StagedRun()
    live: Dict[Any, Set[Any]] = singleton_clusters(tree)
    out: Dict[Any, Set[Any]] = {}
    side: List[Set[Any]] = []  # the paper's set S

    for iteration in range(1, log2_phase_count(k) + 1):
        if not live:
            break
        # (3a) BalancedDOM on every tree of the forest, then contract.
        center_map, rounds, radius = run_balanced_dom_on_forest(
            tree, live, t_parent
        )
        staged.add_rounds(f"iteration-{iteration}", rounds * (2 * radius + 1))
        live = merge_by_center_map(live, center_map, t_depth)
        # (3b) Remove sufficiently deep clusters to the output.  The
        # distributed depth test costs O(k) once per removed cluster
        # (§3.2.3's implementation note); clusters test in parallel so
        # one O(k) charge per iteration with removals suffices.
        removed_any = False
        for top in sorted(live, key=str):
            if cluster_depth(tree, live[top], top) >= k + 1:
                out[top] = live.pop(top)
                removed_any = True
        if removed_any:
            staged.add_rounds(f"depth-test-{iteration}", 2 * (k + 1))
        # (3c) Remove lone clusters (single-node trees of the forest).
        for top in sorted(live, key=str):
            if not _has_live_neighbor(tree, live, top):
                side.append(live.pop(top))

    # Post-loop flush (reproduction note R2): surviving clusters meet the
    # output properties; move them to the output.
    for top in sorted(live, key=str):
        out[top] = live.pop(top)

    # (4) Dispose of the side set.
    _merge_side_set(tree, out, side, k)
    # Re-anchor each output cluster at its true top (step-4 merges may
    # have shifted it); the partition centre is the cluster's root.
    from .partition_common import recompute_top

    partition = Partition(
        Cluster(recompute_top(members, t_depth), set(members))
        for members in out.values()
    )
    return partition, staged


def _has_live_neighbor(
    tree: Graph, live: Dict[Any, Set[Any]], top: Any
) -> bool:
    owner = tops_by_member(live)
    for v in live[top]:
        for u in tree.neighbors(v):
            other = owner.get(u)
            if other is not None and other != top:
                return True
    return False


def _merge_side_set(
    tree: Graph,
    out: Dict[Any, Set[Any]],
    side: List[Set[Any]],
    k: int,
) -> None:
    """Step 4: large side clusters join the output as-is; small ones are
    merged into a neighbouring output cluster (Lemma 3.5 shows one
    exists)."""
    if not side:
        return
    for members in side:
        if len(members) > k:
            top = min(members, key=str)
            out[top] = set(members)
    owner = tops_by_member(out)
    for members in side:
        if len(members) > k:
            continue
        target: Optional[Any] = None
        for v in sorted(members, key=str):
            for u in sorted(tree.neighbors(v), key=str):
                if u in owner:
                    target = owner[u]
                    break
            if target is not None:
                break
        if target is None:
            raise RuntimeError(
                "side cluster has no neighbouring output cluster; "
                "Lemma 3.5's argument is violated"
            )
        out[target] |= members
        for v in members:
            owner[v] = target
