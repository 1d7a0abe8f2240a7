"""Algorithm ``FastDOM_G`` (§4.5, Theorem 4.4): small k-dominating sets
on general graphs in ``O(k log* n)`` rounds.

Composition, exactly as the paper:

1. ``SimpleMST`` builds a ``(k + 1, n)`` spanning forest — each tree a
   fragment of the MST with at least ``k + 1`` nodes — in O(k) rounds,
   sidestepping the Ω(Diam) cost of building one global BFS tree;
2. ``FastDOM_T`` runs on every fragment tree in parallel
   (O(k log* n) rounds);
3. the union of the per-fragment dominating sets has size at most
   ``sum_i |T_i| / (k + 1) = n / (k + 1)``.

If the whole graph has fewer than ``k + 1`` nodes, any single node
k-dominates it (diameter <= n - 1 <= k - 1) and the paper's bound
``max(1, floor(n / (k + 1)))`` is met by a singleton.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.partition import Partition
from ..sim.runner import StagedRun
from .fastdom_tree import fastdom_tree
from .spanning_forest import fragment_trees, simple_mst_forest


def fastdom_graph(
    graph: Graph,
    k: int,
    method: str = "kdom-dp",
    backend: str = "reference",
) -> Tuple[Set[Any], Partition, StagedRun]:
    """Run ``FastDOM_G`` on a connected weighted graph.

    Edge weights must be distinct (the model assumption; use
    :func:`repro.graphs.assign_unique_weights`).  Returns
    (k-dominating set, radius-<=k partition, per-stage rounds).
    ``backend`` (``"reference"`` or ``"dense"``) is forwarded to the
    per-fragment :func:`fastdom_tree` runs (``"dense"`` vectorizes them;
    see that driver's fallback rules).  Unless observed, SimpleMST (see
    :func:`~repro.core.spanning_forest.simple_mst_forest`) and
    FastDOM_T's BalancedDOM and cluster stages skip the engine.
    """
    from ..graphs.validation import is_connected

    if backend not in ("reference", "dense"):
        raise ValueError(f"unknown backend {backend!r}")
    staged = StagedRun()
    n = graph.num_nodes
    if n == 0:
        return set(), Partition([]), staged
    if not is_connected(graph):
        raise ValueError(
            "FastDOM_G requires a connected graph (the size bound "
            "n/(k+1) is per connected network)"
        )
    if n <= k:
        # Degenerate small graph: one dominator suffices.
        center = min(graph.nodes, key=str)
        partition = Partition.from_center_map({v: center for v in graph.nodes})
        return {center}, partition, staged

    parents, fragments, network = simple_mst_forest(graph, k)
    staged.record("simple-mst", network.metrics)

    dominators: Set[Any] = set()
    center_map: Dict[Any, Any] = {}
    max_fragment_rounds = 0
    fragment_messages = 0
    for _fragment, fragment_tree, fragment_root, fragment_parent in fragment_trees(
        graph, parents, fragments
    ):
        frag_d, frag_p, frag_staged = fastdom_tree(
            fragment_tree, fragment_root, fragment_parent, k,
            method=method, backend=backend,
        )
        dominators |= frag_d
        center_map.update(frag_p.center_of)
        max_fragment_rounds = max(max_fragment_rounds, frag_staged.total_rounds)
        fragment_messages += frag_staged.total_messages
    # Fragments are vertex-disjoint: their FastDOM_T runs execute in
    # parallel, so the stage costs the slowest fragment (messages sum).
    staged.add_rounds("fastdom-per-fragment", max_fragment_rounds)
    staged.total_messages += fragment_messages
    return dominators, Partition.from_center_map(center_map), staged
