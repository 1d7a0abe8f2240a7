"""Structural validity checks used across the library and its tests."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .distances import connected_components
from .graph import Graph


def is_connected(graph: Graph) -> bool:
    if graph.num_nodes == 0:
        return True
    return len(connected_components(graph)) == 1


def is_tree(graph: Graph) -> bool:
    """Connected and |E| = |V| - 1."""
    if graph.num_nodes == 0:
        return True
    return is_connected(graph) and graph.num_edges == graph.num_nodes - 1


def is_forest(graph: Graph) -> bool:
    """Acyclic: every component has |E| = |V| - 1."""
    components = connected_components(graph)
    for component in components:
        members = set(component)
        edges = sum(
            1
            for u in component
            for v in graph.neighbors(u)
            if v in members
        ) // 2
        if edges != len(component) - 1:
            return False
    return True


def require_acyclic_parents(parent_of: Dict[Any, Optional[Any]]) -> None:
    """Raise ``ValueError`` unless every parent chain reaches a root
    (a node whose parent is ``None`` or absent), in one O(n) pass."""
    done: set = set()
    for v in parent_of:
        path = set()
        while v is not None and v not in done:
            if v in path:
                raise ValueError("parent map contains a cycle")
            path.add(v)
            v = parent_of.get(v)
        done |= path


def has_unique_weights(graph: Graph) -> bool:
    weights = [w for _u, _v, w in graph.weighted_edges()]
    if any(w is None for w in weights):
        return False
    return len(set(weights)) == len(weights)


def edges_form_spanning_tree(graph: Graph, edge_list: Iterable[Tuple[Any, Any]]) -> bool:
    """Do ``edge_list`` (edges of ``graph``) span all nodes acyclically?"""
    edge_list = list(edge_list)
    for u, v in edge_list:
        if not graph.has_edge(u, v):
            return False
    sub = graph.edge_subgraph(edge_list)
    return is_tree(sub)
