"""Algorithm ``Fast-MST`` (§5.2, Theorem 5.6): distributed MST in
``O(sqrt(n) log* n + Diam(G))`` rounds.

Stage 1 — the first two stages of ``FastDOM_G`` with ``k = ceil(sqrt n)``
(the third, DiamDOM, "is not essential for the purposes of the current
section", footnote 2):

* ``SimpleMST`` builds a ``(k+1, n)`` spanning forest of MST fragments
  in O(k) rounds;
* ``DOM_Partition(k)`` splits each fragment into clusters of radius
  O(k) and size >= k + 1, every cluster still a subtree of the MST;
* a cluster-id wave (O(k) rounds) gives every node its cluster's
  identity — this is why the re-partition matters: SimpleMST fragments
  have bounded *size-count* but unbounded radius, so their stale ids
  (§4.2) could not be refreshed in O(k) time.

Stage 2 — Procedure ``Pipeline`` over the ``N = O(sqrt n)`` clusters:
O(N + Diam) rounds.  The MST is the union of the intra-cluster fragment
edges and the ``N - 1`` selected inter-cluster edges.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Set, Tuple

from ..core.partition_fast import dom_partition
from ..core.spanning_forest import fragment_trees, simple_mst_forest
from ..graphs.graph import Graph
from ..sim.runner import StagedRun
from .kruskal import _canonical
from .pipeline import run_pipeline


def default_k(n: int) -> int:
    """The paper's parameter choice, k = ceil(sqrt(n))."""
    return max(1, math.ceil(math.sqrt(max(n, 1))))


def fast_mst(
    graph: Graph,
    k: Optional[int] = None,
    root: Any = None,
) -> Tuple[Set[Tuple[Any, Any]], StagedRun, Dict[str, Any]]:
    """Run ``Fast-MST`` on a connected graph with distinct edge weights.

    ``k`` defaults to ``ceil(sqrt(n))``.  Returns (MST edge set, staged
    round accounting, diagnostics: cluster count, pipelining/order
    violation counts).
    """
    n = graph.num_nodes
    if n == 0:
        return set(), StagedRun(), {"clusters": 0}
    if k is None:
        k = default_k(n)
    staged = StagedRun()

    # --- Stage 1a: SimpleMST -> (k+1, n) spanning forest of MST fragments.
    parents, fragments, forest_network = simple_mst_forest(graph, k)
    staged.record("simple-mst", forest_network.metrics)
    mst_edges: Set[Tuple[Any, Any]] = {
        _canonical(v, p) for v, p in parents.items() if p is not None
    }

    # --- Stage 1b: DOM_Partition(k) inside each fragment (parallel).
    cluster_of: Dict[Any, Any] = {}
    max_partition_rounds = 0
    max_cluster_radius = 0
    n_clusters = 0
    for fragment, fragment_tree, fragment_root, fragment_parent in fragment_trees(
        graph, parents, fragments
    ):
        if k >= 1 and fragment_tree.num_nodes >= k + 1:
            partition, part_staged = dom_partition(
                fragment_tree, fragment_root, fragment_parent, k
            )
            max_partition_rounds = max(
                max_partition_rounds, part_staged.total_rounds
            )
            for cluster in partition:
                n_clusters += 1
                max_cluster_radius = max(
                    max_cluster_radius, cluster.radius_in(fragment_tree)
                )
                for v in cluster.members:
                    cluster_of[v] = cluster.center
        else:
            # Whole (small) fragment is a single cluster.
            n_clusters += 1
            for v in fragment:
                cluster_of[v] = fragment_root
    staged.add_rounds("dom-partition", max_partition_rounds)
    # Cluster-id refresh wave: centre -> members, bounded by the radius.
    staged.add_rounds("cluster-id-wave", 2 * max_cluster_radius + 1)

    # --- Stage 2: Pipeline over the cluster (fragment) graph.
    selected, pipeline_staged, pipeline_network = run_pipeline(
        graph, cluster_of, root=root
    )
    for name, rounds in pipeline_staged.breakdown().items():
        staged.add_rounds(name, rounds)
    staged.total_messages += pipeline_staged.total_messages
    mst_edges |= {_canonical(a, b) for a, b in selected}

    outputs = pipeline_network.outputs()
    diagnostics = {
        "clusters": n_clusters,
        "fragments": len(fragments),
        "max_cluster_radius": max_cluster_radius,
        "pipelining_violations": sum(
            o.get("pipelining_violations", 0) for o in outputs.values()
        ),
        "order_violations": sum(
            o.get("order_violations", 0) for o in outputs.values()
        ),
        "k": k,
    }
    return mst_edges, staged, diagnostics
