"""Edge-weight assignment.

The paper assumes "each edge e in E is associated with a distinct
weight w(e), known to the adjacent nodes" and that weights are
"polynomial in n, so an edge weight can be sent in a single message"
(§1.2).  These helpers enforce both: weights are distinct integers
bounded by ``n ** 3`` by default.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from .graph import Graph


def assign_unique_weights(
    graph: Graph,
    seed: int = 0,
    max_weight: Optional[int] = None,
) -> Graph:
    """Assign distinct integer weights to every edge, in place.

    Weights are a random injection into ``[1, max_weight]`` where
    ``max_weight`` defaults to ``max(n, 2) ** 3`` — polynomial in ``n``
    as the model requires.  Returns the graph for chaining.
    """
    m = graph.num_edges
    n = graph.num_nodes
    # The default assignment is replayable from (provenance, seed), so
    # re-stamp provenance with the weight seed.  A custom max_weight is
    # not recorded in the recipe, so it invalidates instead.
    provenance = graph.provenance if max_weight is None else None
    if max_weight is None:
        max_weight = max(n, 2) ** 3
    if max_weight < m:
        raise ValueError(
            f"cannot give {m} edges distinct weights bounded by {max_weight}"
        )
    rng = random.Random(seed)
    weights = rng.sample(range(1, max_weight + 1), m)
    for (u, v), w in zip(sorted(graph.edges(), key=str), weights):
        graph.set_weight(u, v, w)
    if provenance is not None:
        graph.provenance = replace(provenance, weight_seed=seed)
    return graph


def assign_weights_by_rank(graph: Graph, seed: int = 0) -> Graph:
    """Assign the weights 1..m in a seeded random order, in place.

    Useful when tests want the MST to be determined purely by a random
    permutation (every weight profile with the same ranks has the same
    MST).
    """
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=str)
    rng.shuffle(edges)
    for rank, (u, v) in enumerate(edges, start=1):
        graph.set_weight(u, v, rank)
    return graph


def weights_are_polynomial(graph: Graph, degree: int = 3) -> bool:
    """Check the model assumption w(e) = O(n ** degree)."""
    bound = max(graph.num_nodes, 2) ** degree
    return all(
        w is not None and 0 < w <= bound for _u, _v, w in graph.weighted_edges()
    )


def perturb_to_unique(graph: Graph) -> Graph:
    """Make duplicate weights distinct by lexicographic tie-breaking.

    Standard trick (also usable instead of the paper's distinct-weight
    assumption): extend weight ``w`` of edge ``(u, v)`` to the triple
    ``(w, u, v)``.  We encode the triple back into a single integer
    ranking so the rest of the library keeps working with scalars.
    """
    ranked = sorted(
        graph.weighted_edges(), key=lambda t: (t[2], str(t[0]), str(t[1]))
    )
    for rank, (u, v, _w) in enumerate(ranked, start=1):
        graph.set_weight(u, v, rank)
    return graph
