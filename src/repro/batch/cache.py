"""The process's graph cache: one bounded owner of generated graphs.

Every procedure a cell runs (FastDOM_T, FastDOM_G, DOM_Partition,
Fast-MST) is a function of one generated graph, and sweep grids repeat
the same (spec, seed) pair across every value of ``k``.  Generation —
especially ``random:`` connectivity retries and the distinct-weight
assignment — is a real fraction of small-cell runtime, so the cache
generates each (spec, seed, weight seed) combination once and hands
the same object to every later cell.

Cached graphs are therefore **shared and must be treated read-only**
by workloads.  Weight assignment is the one sanctioned mutation and it
happens here, at generation time, so a weighted and an unweighted
request for the same (spec, seed) get *separate* objects.

The cache is an LRU bounded by the total nodes of the graphs it holds
(:data:`NODE_BUDGET`); the newest graph is always kept, however large.
Views derived from a graph (the dense backend's CSR adjacency) are
weak-keyed on the graph object, so they go when their graph goes and
this one bound covers them too.

Each pool worker holds exactly one cache (:func:`worker_graph_cache`),
shared by sweep cells (:mod:`repro.batch.sweep`) and spec-dispatched
runs (:mod:`repro.batch.dispatch`), so repeated cells never regenerate
within a worker and workers never contend on shared state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..graphs import (
    Graph,
    assign_unique_weights,
    has_unique_weights,
    parse_graph_spec,
)

#: Total nodes one cache may hold before evicting its least recently
#: used graphs.  A sweep worker's grid of n=80 graphs stays far below
#: it; two 10^5-node graphs fit side by side.
NODE_BUDGET = 1 << 18


class GraphCache:
    """Memoized (spec, seed, weight seed) -> graph generation, LRU."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[str, int, Optional[int]], Graph]" = (
            OrderedDict()
        )
        #: Total nodes of the cached graphs (bounded by NODE_BUDGET).
        self.nodes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        spec: str,
        seed: int,
        weighted: bool = False,
        weight_seed: Optional[int] = None,
    ) -> Graph:
        """The graph for ``spec`` at ``seed``; generated on a miss.

        ``weighted=True`` additionally assigns distinct polynomial edge
        weights (seeded by the same ``seed``) unless the generator
        already produced unique weights.  ``weight_seed`` decouples the
        weight seed from the generation seed — the spec-dispatch replay
        (:mod:`repro.batch.dispatch`) needs that, because a graph may
        have been weighted with an unrelated seed.
        """
        if weight_seed is None and weighted:
            weight_seed = int(seed)
        key = (spec, int(seed), weight_seed)
        graph = self._entries.get(key)
        if graph is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return graph
        self.misses += 1
        graph = parse_graph_spec(spec, seed=seed)
        if weight_seed is not None and not has_unique_weights(graph):
            assign_unique_weights(graph, seed=weight_seed)
        self._entries[key] = graph
        self.nodes += graph.num_nodes
        while self.nodes > NODE_BUDGET and len(self._entries) > 1:
            _key, evicted = self._entries.popitem(last=False)
            self.nodes -= evicted.num_nodes
            self.evictions += 1
        return graph

    def __len__(self) -> int:
        return len(self._entries)


# Lazy module state rather than a pool initializer, so tasks routed
# through a long-lived SharedPool — whose workers predate the sweep —
# still get per-worker memoization.
_WORKER_CACHE: Optional[GraphCache] = None


def worker_graph_cache() -> GraphCache:
    """This process's graph cache, created on first use."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = GraphCache()
    return _WORKER_CACHE
