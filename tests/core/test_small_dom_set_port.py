"""Small-Dom-Set computed without the engine, against the engine reference.

Unobserved, :func:`run_balanced_dom_on_forest` takes
:func:`direct_small_dom_set` instead of simulating
:class:`SmallDomSetProgram` on the contracted forest.  The ``dominator``
map (its order included), ``in_dominating_set`` and the round count
must equal a plain engine run of the program; observed runs, and forests
whose parent relation leaves the contracted adjacency, must still take
the engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import GraphCache
from repro.core import (
    dom_partition,
    dom_partition_1,
    dom_partition_2,
    partition_basic,
    partition_bounded,
    partition_fast,
)
from repro.core.partition_common import (
    build_contracted_forest,
    contracted_parent_map,
    run_balanced_dom_on_forest,
    singleton_clusters,
)
from repro.core.small_dom_set import SmallDomSetProgram, direct_small_dom_set
from repro.graphs import Graph, bfs_tree, path_graph, star_graph
from repro.obs import CountingSubscriber, observe
from repro.sim import Network, RoundLimitExceeded
from repro.sim.virtual import ContractedGraph

from ..conftest import pruefer_trees
from .test_simple_mst_port import PERFBENCH_SPECS

LADDERS = (dom_partition, dom_partition_1, dom_partition_2)
KS = (1, 2, 3, 4, 5, 8, 13)


def engine_run(topology, parents, id_bound):
    network = Network(topology)
    network.run(lambda ctx: SmallDomSetProgram(ctx, parents, id_bound=id_bound))
    return network


def assert_matches_engine(topology, parents, id_bound):
    neighbors = {v: set(topology.neighbors(v)) for v in topology.nodes}
    port = direct_small_dom_set(neighbors, parents, id_bound)
    assert port is not None, "the engine would run"
    dominator, in_dominating_set, rounds = port
    reference = engine_run(topology, parents, id_bound)
    assert list(dominator.items()) == list(
        reference.output_field("dominator").items()
    )
    assert list(in_dominating_set.items()) == list(
        reference.output_field("in_dominating_set").items()
    )
    assert rounds == reference.metrics.rounds
    return reference


def id_bound_of(tree):
    return max(tree.num_nodes, max(v + 1 for v in tree.nodes))


def rooted_spanning_tree(graph):
    """The BFS tree from the str-least node, as the partition workload
    roots its trees (the graph itself when it is a tree)."""
    root = min(graph.nodes, key=str)
    _dist, parent = bfs_tree(graph, root)
    tree = graph.edge_subgraph(
        (v, p) for v, p in parent.items() if p is not None
    )
    return tree, root, parent


def capture_forests(monkeypatch, tree, root, parent, k):
    """Run every partition ladder; return each BalancedDOM call's
    (clusters, result)."""
    calls = []

    def spy(tree, clusters, t_parent, radius=None):
        snapshot = {top: set(members) for top, members in clusters.items()}
        result = run_balanced_dom_on_forest(tree, clusters, t_parent, radius)
        calls.append((snapshot, result))
        return result

    for module in (partition_basic, partition_bounded, partition_fast):
        monkeypatch.setattr(module, "run_balanced_dom_on_forest", spy)
    for ladder in LADDERS:
        ladder(tree, root, parent, k)
    return calls


@pytest.mark.parametrize("spec", PERFBENCH_SPECS)
def test_perfbench_contracted_forests(spec, monkeypatch):
    cache = GraphCache()
    forests = 0
    for seed in range(6):
        tree, root, parent = rooted_spanning_tree(cache.get(spec, seed))
        id_bound = id_bound_of(tree)
        for k in KS:
            if tree.num_nodes < k + 1:
                continue
            for clusters, (center_map, rounds, radius) in capture_forests(
                monkeypatch, tree, root, parent, k
            ):
                contracted = build_contracted_forest(tree, clusters)
                parents = contracted_parent_map(parent, clusters)
                # Adjacency is the parent relation: the port, not the
                # engine fallback, served every call.
                assert {
                    frozenset((v, u))
                    for v in contracted.nodes
                    for u in contracted.neighbors(v)
                } == {frozenset((v, p)) for v, p in parents.items() if p is not None}
                reference = assert_matches_engine(contracted, parents, id_bound)
                assert list(center_map.items()) == list(
                    reference.output_field("dominator").items()
                )
                assert rounds == reference.metrics.rounds
                assert radius == contracted.max_radius()
                forests += 1
    assert forests > 0


@st.composite
def rooted_forests(draw):
    """Sparse-id forests: a Prüfer tree relabelled into a larger id
    space, some edges cut, isolated nodes added, each part rooted at a
    drawn node; plus an id bound above the largest id."""
    tree = draw(pruefer_trees(min_nodes=2, max_nodes=40))
    nodes = sorted(tree.nodes)
    ids = draw(
        st.lists(
            st.integers(0, 5000),
            min_size=len(nodes) + 3,
            max_size=len(nodes) + 3,
            unique=True,
        )
    )
    label = dict(zip(nodes, ids))
    forest = Graph()
    for v in ids[len(nodes):]:
        forest.add_node(v)  # isolated
    edges = sorted(tree.edges())
    cut = draw(st.sets(st.integers(0, len(edges) - 1), max_size=3))
    for v in nodes:
        forest.add_node(label[v])
    for i, (u, v) in enumerate(edges):
        if i not in cut:
            forest.add_edge(label[u], label[v])
    parents = {}
    for v in sorted(forest.nodes):
        if v in parents:
            continue
        component = sorted(bfs_tree(forest, v)[1])
        root = draw(st.sampled_from(component))
        parents.update(bfs_tree(forest, root)[1])
    id_bound = max(ids) + 1 + draw(st.integers(0, 10**6))
    return forest, parents, id_bound


def singleton_topology(forest):
    return ContractedGraph(forest, singleton_clusters(forest))


@settings(max_examples=60, deadline=None)
@given(rooted_forests())
def test_rooted_forest_family(case):
    forest, parents, id_bound = case
    assert_matches_engine(singleton_topology(forest), parents, id_bound)


@pytest.mark.parametrize(
    "graph,root",
    [(path_graph(30), 0), (path_graph(31), 15), (star_graph(30), 0), (star_graph(30), 7)],
    ids=["path-end", "path-middle", "star-centre", "star-leaf"],
)
def test_path_and_star(graph, root):
    _dist, parents = bfs_tree(graph, root)
    assert_matches_engine(singleton_topology(graph), parents, graph.num_nodes)


def test_parent_outside_adjacency_raises_the_engine_error():
    # T is the path 0-1-2-3, but the orientation claims 2's parent is 0:
    # the contracted parent of cluster 2 is not one of its neighbours.
    tree = path_graph(4)
    t_parent = {0: None, 1: 0, 2: 0, 3: 2}
    clusters = singleton_clusters(tree)
    contracted = build_contracted_forest(tree, clusters)
    neighbors = {v: set(contracted.neighbors(v)) for v in contracted.nodes}
    parents = contracted_parent_map(t_parent, clusters)
    assert direct_small_dom_set(neighbors, parents, 4) is None
    with pytest.raises(RuntimeError, match="missed its parent's colour"):
        engine_run(contracted, parents, 4)
    with pytest.raises(RuntimeError, match="missed its parent's colour"):
        run_balanced_dom_on_forest(tree, clusters, t_parent)


def test_overlapping_clusters_raise():
    tree = path_graph(4)
    _dist, t_parent = bfs_tree(tree, 0)
    with pytest.raises(ValueError, match="appears in two clusters"):
        run_balanced_dom_on_forest(tree, {0: {0, 1}, 2: {1, 2, 3}}, t_parent)


def test_disconnected_cluster_raises():
    tree = path_graph(4)
    _dist, t_parent = bfs_tree(tree, 0)
    with pytest.raises(ValueError, match="not connected"):
        run_balanced_dom_on_forest(tree, {0: {0, 2}, 1: {1}, 3: {3}}, t_parent)


def test_bad_ids_raise_the_program_error():
    with pytest.raises(ValueError, match="non-negative integer"):
        direct_small_dom_set({-1: {0}, 0: {-1}}, {-1: None, 0: -1}, 4)
    with pytest.raises(ValueError, match="exceeds the declared id bound"):
        direct_small_dom_set({0: {9}, 9: {0}}, {0: None, 9: 0}, 4)


def test_empty_forest_raises_round_limit():
    # The engine never halts a network without nodes.
    with pytest.raises(RoundLimitExceeded):
        direct_small_dom_set({}, {}, 4)


def test_observed_stage_emits_the_engine_events():
    tree = GraphCache().get("tree:n=32", 3)
    _dist, t_parent = bfs_tree(tree, min(tree.nodes, key=str))
    clusters = singleton_clusters(tree)
    contracted = build_contracted_forest(tree, clusters)
    parents = contracted_parent_map(t_parent, clusters)
    counts = []
    for run in (
        lambda: run_balanced_dom_on_forest(tree, clusters, t_parent),
        lambda: engine_run(contracted, parents, id_bound_of(tree)),
    ):
        counter = CountingSubscriber()
        with observe(counter):
            run()
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["send"] > 0
