"""Algorithm ``FastDOM_T`` (§3.3, Theorem 3.2): small k-dominating sets
on trees in ``O(k log* n)`` rounds.

Composition, exactly as the paper:

1. ``DOM_Partition(k)`` partitions the tree into clusters with
   ``|C| >= k + 1`` and ``Rad(C) <= 5k + 2``;
2. a diameter-time k-dominating set procedure runs *inside every
   cluster in parallel* — O(k) rounds each, since cluster diameters are
   O(k);
3. the union of the per-cluster sets is the answer:
   ``|D| = sum |D_i| <= sum |C_i| / (k+1) = n / (k+1)``
   (Corollary 3.9(a)) and every node is within k of its cluster's
   dominator set (Corollary 3.9(b)).

The per-cluster procedure is selectable:

* ``method="kdom-dp"`` (default): the convergecast DP of
  :mod:`repro.core.kdom_tree` — exact minimum per cluster, hence the
  Lemma 2.1 bound, and always k-dominating.
* ``method="diamdom"``: the paper's census algorithm
  (:mod:`repro.core.diam_dom`) — faithful, but subject to reproduction
  note R1 (the chosen level class may fail to dominate on clusters with
  shallow leaves), in which case this driver raises.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Partition
from ..obs.session import current_observation
from ..sim.network import Network
from ..sim.runner import StagedRun, run_in_parallel
from .diam_dom import DiamDOMProgram
from .kdom_tree import (
    NearestDominatorProgram,
    TreeKDomProgram,
    direct_cluster_kdom,
)
from .partition_fast import dom_partition

METHODS = ("kdom-dp", "diamdom")


def fastdom_tree(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
    method: str = "kdom-dp",
    backend: str = "reference",
) -> Tuple[Set[Any], Partition, StagedRun]:
    """Run ``FastDOM_T`` on a rooted tree with ``n >= k + 1`` nodes.

    Returns (k-dominating set D, the radius-<=k partition P around D,
    per-stage round accounting).

    The per-cluster stages run every cluster on its own sub-network and
    merge them with :func:`~repro.sim.runner.run_in_parallel` (rounds
    are the maximum over clusters, traffic the sum).  Unobserved with
    ``method="kdom-dp"``, they skip the engine:
    :func:`~repro.core.kdom_tree.direct_cluster_kdom` computes the DP
    and the wave with the engine's outputs and exact metrics.  Observed
    runs, ``method="diamdom"`` and clusters outside that function's
    contract run the per-cluster programs on the engine, which raises
    its own errors.

    ``backend="dense"`` runs the whole pipeline as numpy array rounds
    (:mod:`repro.sim.dense.forest`): the partition's BalancedDOM stages,
    all per-cluster DP runs as one forest-wide kernel, and the
    nearest-dominator wave as k scatter-min rounds — identical
    dominators, partition, and stage accounting.  It applies to
    ``method="kdom-dp"`` without an active observation; otherwise the
    call transparently degrades to ``"reference"`` (the event engine is
    the only implementation of ``diamdom`` and of observed runs).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if backend not in ("reference", "dense"):
        raise ValueError(f"unknown backend {backend!r}")
    if k == 0:
        # Degenerate: every node dominates itself.
        dominators = set(tree.nodes)
        partition = Partition.from_center_map({v: v for v in tree.nodes})
        return dominators, partition, StagedRun()

    direct_route = method == "kdom-dp" and current_observation() is None
    if backend == "dense":
        from ..sim.dense import require_numpy

        require_numpy()
        if direct_route:
            return _fastdom_tree_dense(tree, root, t_parent, k)

    clusters_partition, staged = dom_partition(tree, root, t_parent, k)

    if direct_route:
        direct = direct_cluster_kdom(tree, t_parent, clusters_partition, k)
        if direct is not None:
            cluster_sets, dom_metrics, assignments, wave_metrics = direct
            staged.record("cluster-domination", dom_metrics)
            dominators = _union_of_cluster_sets(clusters_partition, cluster_sets)
            staged.record("cluster-partition", wave_metrics)
            return dominators, _partition_of(assignments, k), staged

    # Per-cluster runs are vertex-disjoint, hence truly parallel; rounds
    # are the maximum over clusters (run_in_parallel semantics).
    dom_runs = []
    subgraphs = []
    for cluster in clusters_partition:
        sub = tree.subgraph(cluster.members)
        sub_parent = {
            v: (t_parent.get(v) if t_parent.get(v) in cluster.members else None)
            for v in cluster.members
        }
        sub_root = next(v for v, p in sub_parent.items() if p is None)
        network = Network(sub)
        if method == "kdom-dp":
            factory = partial(
                TreeKDomProgram, root=sub_root, parent_of=sub_parent, k=k
            )
        else:
            factory = partial(DiamDOMProgram, root=sub_root, k=k)
        dom_runs.append((network, factory))
        subgraphs.append(sub)
    networks, combined = run_in_parallel(dom_runs)
    staged.record("cluster-domination", combined)

    cluster_sets = [
        {v for v, flag in network.output_field("in_dominating_set").items() if flag}
        for network in networks
    ]
    dominators = _union_of_cluster_sets(clusters_partition, cluster_sets)
    wave_runs = [
        (Network(sub), partial(_wave_program, dominators=cluster_dominators, k=k))
        for sub, cluster_dominators in zip(subgraphs, cluster_sets)
    ]
    wave_networks, wave_combined = run_in_parallel(wave_runs)
    staged.record("cluster-partition", wave_combined)
    assignments = [network.output_field("dominator") for network in wave_networks]
    return dominators, _partition_of(assignments, k), staged


def _wave_program(ctx, dominators, k):
    return NearestDominatorProgram(ctx, ctx.node in dominators, k)


def _union_of_cluster_sets(clusters, cluster_sets) -> Set[Any]:
    dominators: Set[Any] = set()
    for cluster, cluster_dominators in zip(clusters, cluster_sets):
        if not cluster_dominators:
            raise RuntimeError(
                f"cluster {cluster.center} produced an empty dominating set"
            )
        dominators |= cluster_dominators
    return dominators


def _partition_of(assignments, k: int) -> Partition:
    center_map: Dict[Any, Any] = {}
    for assignment in assignments:
        for v, dom in assignment.items():
            if dom is None:
                raise RuntimeError(
                    f"node {v} found no dominator within {k} hops in its "
                    f"cluster; the per-cluster set is not k-dominating "
                    f"(reproduction note R1 applies to method='diamdom')"
                )
            center_map[v] = dom
    return Partition.from_center_map(center_map)


def _fastdom_tree_dense(
    tree: Graph,
    root: Any,
    t_parent: Dict[Any, Optional[Any]],
    k: int,
) -> Tuple[Set[Any], Partition, StagedRun]:
    from ..sim.dense.core import np
    from ..sim.dense.csr import csr_adjacency
    from ..sim.dense.forest import (
        dense_cluster_domination,
        nearest_dominator_wave,
        partition_from_labels,
    )

    clusters_partition, staged = dom_partition(
        tree, root, t_parent, k, backend="dense"
    )
    csr = csr_adjacency(tree)
    n = csr.n
    nodes = csr.nodes
    index = csr.index
    # Clusters are keyed by their centre's row — the DP and the wave
    # only compare owner labels for equality, so any injective labelling
    # works and the centre row avoids a python pass per cluster.
    center_of = clusters_partition.center_of
    owner = np.fromiter(
        (index[center_of[v]] for v in nodes), dtype=np.int64, count=n
    )
    t_parent_row = np.fromiter(
        (
            -1 if t_parent.get(v) is None else index[t_parent[v]]
            for v in nodes
        ),
        dtype=np.int64,
        count=n,
    )
    same_cluster = (t_parent_row >= 0) & (
        owner[np.maximum(t_parent_row, 0)] == owner
    )
    parent = np.where(same_cluster, t_parent_row, np.int64(-1))

    domination = dense_cluster_domination(csr, parent, k)
    if domination is None:  # pragma: no cover - clusters are subtrees
        raise ValueError("cluster parent map contains a cycle")
    in_dom, dom_metrics = domination
    staged.record("cluster-domination", dom_metrics)
    counts = np.bincount(owner[in_dom], minlength=n)
    for cluster in clusters_partition:
        if counts[index[cluster.center]] == 0:  # pragma: no cover - the DP never is
            raise RuntimeError(
                f"cluster {cluster.center} produced an empty dominating set"
            )
    dominators = {nodes[row] for row in np.flatnonzero(in_dom).tolist()}

    label, dist, wave_metrics = nearest_dominator_wave(csr, owner, in_dom, k)
    staged.record("cluster-partition", wave_metrics)
    if (label < 0).any():  # pragma: no cover - clusters have Rad <= k around D
        v = nodes[int(np.flatnonzero(label < 0)[0])]
        raise RuntimeError(
            f"node {v} found no dominator within {k} hops in its "
            f"cluster; the per-cluster set is not k-dominating "
            f"(reproduction note R1 applies to method='diamdom')"
        )
    return dominators, partition_from_labels(csr, label), staged
