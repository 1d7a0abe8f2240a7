"""The paper's output contracts, checked with networkx.

Nothing here imports the routes, so a rule that is wrong alike in the
engine programs and their ports fails here even though every
differential comparison passes.  Each check takes a graph (anything
with ``nodes`` and ``weighted_edges()``) and plain outputs.
"""

import functools
import math

import networkx as nx


@functools.lru_cache(maxsize=8)
def nx_graph(graph):
    """``graph`` as networkx sees it; the rows checking one input share it."""
    G = nx.Graph()
    G.add_nodes_from(graph.nodes)
    G.add_weighted_edges_from(graph.weighted_edges())
    return G


@functools.lru_cache(maxsize=8)
def _power(graph, k):
    return nx.power(nx_graph(graph), k)


def _clusters(center_of):
    clusters = {}
    for v, center in center_of.items():
        clusters.setdefault(center, set()).add(v)
    return clusters


def _radius(G, members, center):
    """Eccentricity of ``center`` inside the subgraph ``members`` induce."""
    reach = nx.single_source_shortest_path_length(G.subgraph(members), center)
    assert len(reach) == len(members), f"cluster of {center} is not connected"
    return max(reach.values())


def k_domination(graph, k, dominators, center_of):
    """Corollary 3.9: D k-dominates G, |D| <= max(1, n // (k + 1)), and
    every node lies within k of its cluster's centre inside the cluster."""
    G = nx_graph(graph)
    D = set(dominators)
    if k == 0:
        assert D == set(G)
    else:
        assert nx.is_dominating_set(_power(graph, k), D), "not k-dominating"
    assert len(D) <= max(1, len(G) // (k + 1)), "more dominators than n/(k+1)"
    clusters = _clusters(center_of)
    assert set(center_of) == set(G) and set(clusters) == D
    for center, members in clusters.items():
        assert _radius(G, members, center) <= k, f"cluster of {center} too wide"


def nearest_centres(graph, k, dominators, center_of):
    """Every node's centre is its nearest dominator, ties to the smallest
    id (all lie within k: checked by :func:`k_domination`)."""
    G = nx_graph(graph)
    dist = {d: nx.single_source_shortest_path_length(G, d, k) for d in dominators}
    for v, center in center_of.items():
        nearest = min(dominators, key=lambda d: (dist[d].get(v, math.inf), d))
        assert center == nearest, f"node {v}: centre {center}, nearest {nearest}"


def lemma_3_7(graph, k, center_of):
    """DOM_Partition's clusters: |C| >= k + 1 and Rad(C) <= 5k + 2."""
    G = nx_graph(graph)
    assert set(center_of) == set(G)
    for center, members in _clusters(center_of).items():
        assert len(members) >= k + 1, f"cluster of {center} has {len(members)} nodes"
        assert _radius(G, members, center) <= 5 * k + 2, f"cluster of {center} too wide"


def lemma_3_2(graph, clusters, center_map, radius):
    """Small-Dom-Set on the forest contracted from ``clusters`` (top ->
    members): stars around D, |D| <= ceil(n / 2) in every tree of two
    or more nodes, each dominator with a neighbour outside D, and
    ``radius`` the widest cluster's depth below its top."""
    G = nx_graph(graph)
    top = {v: t for t, members in clusters.items() for v in members}
    Q = nx.relabel_nodes(G.subgraph(top), top)  # merges each cluster
    Q.remove_edges_from(list(nx.selfloop_edges(Q)))
    D = set(center_map.values())
    for v, center in center_map.items():
        assert center == v or Q.has_edge(v, center), f"{v} is not in a star"
    for tree in nx.connected_components(Q):
        if len(tree) > 1:
            assert len(D & tree) <= math.ceil(len(tree) / 2)
            for d in D & tree:
                assert set(Q[d]) - D, f"dominator {d} has no neighbour outside D"
    assert radius == max(_radius(G, m, t) for t, m in clusters.items())


def mst_forest(graph, k, parents, fragments):
    """SimpleMST: a (k + 1, n) spanning forest whose edges are MST edges.
    Checked on valid inputs only (distinct weights on every edge)."""
    weights = [w for _u, _v, w in graph.weighted_edges()]
    if None in weights or len(set(weights)) < len(weights):
        return
    G = nx_graph(graph)
    edges = [(v, p) for v, p in parents.items() if p is not None]
    mst = {frozenset(e) for e in nx.minimum_spanning_edges(G, data=False)}
    assert {frozenset(e) for e in edges} <= mst, "a fragment edge is not an MST edge"
    T = nx.Graph(edges)
    T.add_nodes_from(G)
    assert nx.is_forest(T)
    assert {frozenset(c) for c in nx.connected_components(T)} == {
        frozenset(f) for f in fragments
    }
    component = {v: len(c) for c in nx.connected_components(G) for v in c}
    for fragment in fragments:
        assert len(fragment) >= min(k + 1, component[next(iter(fragment))])


def bfs(graph, root, parents, depths):
    """BFS depths are hop distances; each parent is one level closer."""
    G = nx_graph(graph)
    assert depths == nx.single_source_shortest_path_length(G, root)
    for v, p in parents.items():
        assert (p is None) == (v == root)
        assert p is None or G.has_edge(v, p) and depths[p] == depths[v] - 1


def pipeline(graph, fragment_of, root, eliminate_cycles, selected, outputs):
    """Procedure Pipeline: the selected edges are an MST of the fragment
    graph, which keeps the lightest edge between each pair of fragments
    (every MST has the same weights); with the red rule on, each node
    upcasts at most N - 1 edges (Lemma 5.1), in order and without
    running dry (Lemma 5.3)."""
    G = nx_graph(graph)
    F = nx.Graph()
    F.add_nodes_from(fragment_of.values())
    for u, v, w in G.edges(data="weight"):
        fu, fv = fragment_of[u], fragment_of[v]
        if fu != fv and (not F.has_edge(fu, fv) or w < F[fu][fv]["weight"]):
            F.add_edge(fu, fv, weight=w)
    S = nx.Graph()
    S.add_nodes_from(F)
    S.add_edges_from((fragment_of[a], fragment_of[b]) for a, b in selected)
    assert all(G.has_edge(a, b) for a, b in selected)
    assert len(selected) == len(F) - 1 and nx.is_tree(S), "not a spanning tree"
    assert sorted(G[a][b]["weight"] for a, b in selected) == sorted(
        d["weight"] for _a, _b, d in nx.minimum_spanning_edges(F)
    ), "not a minimum spanning tree"
    if eliminate_cycles:
        for v, out in outputs.items():
            assert out["upcast_count"] <= len(F) - 1, f"node {v} upcast too much"
            assert out["order_violations"] == out["pipelining_violations"] == 0
