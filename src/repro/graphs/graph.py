"""Undirected weighted graphs.

A deliberately small, dependency-free graph type: adjacency maps with
per-edge weights.  The paper assumes distinct edge weights, polynomial
in ``n`` (so a weight fits in one ``O(log n)``-bit word); see
:mod:`repro.graphs.weights` for the assignment helpers that enforce
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class GraphProvenance:
    """How a generated graph can be rebuilt from scratch: the recipe,
    not the data.

    Replaying ``parse_graph_spec(spec, seed=seed)`` and then, if
    ``weight_seed`` is not ``None``,
    ``assign_unique_weights(seed=weight_seed)`` yields a graph with
    exactly the same nodes, edges and weights.  Generators stamp it at
    construction time; any later structural or weight mutation clears
    it (the recipe would lie), and derived graphs (:meth:`Graph.subgraph`
    and the like) carry none.  The dense backend's CSR memo
    (:func:`repro.sim.dense.csr.csr_adjacency`) reuses a view only while
    this stamp is unchanged.
    """

    spec: str
    seed: int
    weight_seed: Optional[int] = None


class Graph:
    """An undirected graph with optional edge weights.

    Nodes may be any hashable, but the generators in this package use
    consecutive integers.  Self-loops and parallel edges are rejected —
    the paper's model is a simple graph.
    """

    def __init__(self) -> None:
        self._adj: Dict[Any, Dict[Any, Optional[float]]] = {}
        #: Rebuild recipe (:class:`GraphProvenance`) stamped by the
        #: seeded generators; ``None`` for hand-built or mutated graphs.
        self.provenance: Optional[GraphProvenance] = None

    # -- construction -----------------------------------------------------
    def add_node(self, v: Any) -> None:
        if v not in self._adj:
            self._adj[v] = {}
            self.provenance = None

    def add_edge(self, u: Any, v: Any, weight: Optional[float] = None) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u} rejected (simple graph)")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u] and self._adj[u][v] != weight:
            raise ValueError(
                f"edge ({u}, {v}) already present with a different weight"
            )
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self.provenance = None

    def set_weight(self, u: Any, v: Any, weight: float) -> None:
        if v not in self._adj.get(u, {}):
            raise KeyError(f"no edge ({u}, {v})")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self.provenance = None

    def remove_edge(self, u: Any, v: Any) -> None:
        if v not in self._adj.get(u, {}):
            raise KeyError(f"no edge ({u}, {v})")
        del self._adj[u][v]
        del self._adj[v][u]
        self.provenance = None

    # -- inspection ---------------------------------------------------------
    @property
    def nodes(self) -> List[Any]:
        return list(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, v: Any) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def neighbors(self, v: Any) -> List[Any]:
        return list(self._adj[v])

    def degree(self, v: Any) -> int:
        return len(self._adj[v])

    def has_edge(self, u: Any, v: Any) -> bool:
        return v in self._adj.get(u, {})

    def weight(self, u: Any, v: Any) -> Optional[float]:
        return self._adj[u][v]

    def edges(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate each undirected edge once, endpoints sorted."""
        for u in self._adj:
            for v in self._adj[u]:
                if _ordered(u, v):
                    yield (u, v)

    def weighted_edges(self) -> Iterator[Tuple[Any, Any, Optional[float]]]:
        for u, v in self.edges():
            yield (u, v, self._adj[u][v])

    def total_weight(self) -> float:
        return sum(w for _u, _v, w in self.weighted_edges() if w is not None)

    # -- derived graphs ------------------------------------------------------
    def copy(self) -> "Graph":
        clone = Graph()
        for v in self._adj:
            clone.add_node(v)
        for u, v, w in self.weighted_edges():
            clone.add_edge(u, v, w)
        clone.provenance = self.provenance
        return clone

    def subgraph(self, nodes: Iterable[Any]) -> "Graph":
        """The induced subgraph on ``nodes`` (weights preserved)."""
        keep: Set[Any] = set(nodes)
        sub = Graph()
        for v in keep:
            if v not in self._adj:
                raise KeyError(f"node {v} not in graph")
            sub.add_node(v)
        for u, v, w in self.weighted_edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def edge_subgraph(self, edge_list: Iterable[Tuple[Any, Any]]) -> "Graph":
        """Graph on the same node set containing only ``edge_list``."""
        sub = Graph()
        for v in self._adj:
            sub.add_node(v)
        for u, v in edge_list:
            sub.add_edge(u, v, self._adj[u][v])
        return sub

    def relabeled(self, mapping: Dict[Any, Any]) -> "Graph":
        """A copy with nodes renamed by ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabeling must be injective")
        out = Graph()
        for v in self._adj:
            out.add_node(mapping[v])
        for u, v, w in self.weighted_edges():
            out.add_edge(mapping[u], mapping[v], w)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


def _ordered(u: Any, v: Any) -> bool:
    """A stable 'u < v' that tolerates mixed node types."""
    try:
        return u < v
    except TypeError:
        return str(u) < str(v)
