"""Algorithm ``DOM_Partition_1(k)`` (§3.2.1, Fig. 5).

The simplest tree-partitioning algorithm: ``ceil(log2(k + 1))``
rounds of (BalancedDOM → contract), so every cluster at least doubles
per iteration (property (c) of Definition 3.1) and the output is a
``(k + 1, O(k^2))`` spanning forest of the input tree:

Lemma 3.4: every output cluster C satisfies ``|C| >= k + 1`` and
``Rad(C) <= 4 k^2``, and the algorithm needs ``O(k^2 log* n)`` time —
each virtual round over the contracted tree costs time proportional to
the current maximum cluster diameter, which this driver charges as
:class:`~repro.sim.virtual.VirtualNetwork` does.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Partition
from ..sim.runner import StagedRun
from .partition_common import (
    ClusterForest,
    clusters_to_partition,
    log2_phase_count,
    run_balanced_dom_on_forest,
    singleton_clusters,
)


def dom_partition_1(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
) -> Tuple[Partition, StagedRun]:
    """Run ``DOM_Partition_1(k)`` on a rooted tree of size >= k + 1.

    Returns the output partition and per-iteration round accounting.
    """
    if tree.num_nodes < k + 1:
        raise ValueError(
            f"DOM_Partition_1 requires n >= k + 1 (n={tree.num_nodes}, k={k})"
        )
    forest = ClusterForest(tree, root)
    clusters = singleton_clusters(tree)
    staged = StagedRun()
    for iteration in range(1, log2_phase_count(k) + 1):
        if len(clusters) == 1:
            # Fully contracted: nothing left to merge.
            break
        center_map, rounds, radius = run_balanced_dom_on_forest(
            tree, clusters, t_parent, forest.radius(clusters), forest,
            forest.contract(clusters),
        )
        staged.add_rounds(f"iteration-{iteration}", rounds * (2 * radius + 1))
        clusters = forest.merge(clusters, center_map)
    return clusters_to_partition(tree, clusters), staged
