"""The inputs every route of a stage is compared on.

A family maps each input kind to argument tuples for the stages of
that kind (``routes.check_family`` runs them):

============ ====================================== ======================
kind         arguments                              stages
============ ====================================== ======================
``graph``    ``(graph, k)``                         ``simple_mst_forest``
``tree``     ``(tree, root, t_parent, k)``          ``dom_partition``,
                                                    ``fastdom_tree``,
                                                    ``tree_kdominating_set``
``forest``   ``(tree, clusters, t_parent, radius)`` ``run_balanced_dom_on_forest``
``bfs``      ``(graph, root, word_limit)``          ``build_bfs_tree``
``pipeline`` ``(graph, fragment_of, root,           ``run_pipeline``
             eliminate_cycles)``
============ ====================================== ======================

The ``perfbench`` families are the traffic production serves: every
distinct call a stage receives while the ``kdom``, ``partition`` and
``mst`` workloads run the perfbench sweep and serve cells of one graph
spec, while the three DOM_Partition ladders run on the spec's spanning
trees, and while the singleton-fragment MST baselines run on its
weighted graphs, recorded by spies at the stages' call sites.
"""

import functools
import importlib
import inspect

import pytest
from hypothesis import strategies as st

from perfbench.workloads import (
    SERVE_WORKLOAD_SPECS,
    SWEEP_KDOM_SPECS,
    SWEEP_MST_SPECS,
)
from repro.batch import SweepCell
from repro.batch.cache import GraphCache
from repro.batch.registry import get_workload
from repro.core import dom_partition, dom_partition_1, dom_partition_2
from repro.graphs import (
    Graph,
    assign_unique_weights,
    bfs_tree,
    broom_tree,
    caterpillar_tree,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from repro.mst import flood_collect_mst, pipeline_only_mst

from ..conftest import pruefer_trees, weighted_graphs


def _workloads_by_spec():
    by_spec = {}
    for workload, specs in (
        ("kdom", SWEEP_KDOM_SPECS),
        ("mst", SWEEP_MST_SPECS),
    ) + SERVE_WORKLOAD_SPECS:
        for spec in specs:
            by_spec.setdefault(spec, {})[workload] = None
    return by_spec


#: Graph spec -> the workloads perfbench's sweep and serve run on it.
PERFBENCH = _workloads_by_spec()
#: The seeds of production's traffic, and of the earlier suites' drivers.
TRAFFIC_SEEDS, SUITE_SEEDS = range(4), range(6)
KS = (1, 2, 3, 4, 5, 8, 13)
#: SimpleMST's: every phase count from 0 to 5; k = 20 exceeds the serve graphs.
MST_KS = (0, 1, 2, 3, 4, 8, 9, 20)

#: Stage -> (input kind, the modules its callers look it up in).
CALL_SITES = {
    "simple_mst_forest": ("graph", ("repro.core.fastdom_graph", "repro.mst.fast_mst")),
    "dom_partition": (
        "tree",
        ("repro.core", "repro.core.fastdom_tree", "repro.mst.fast_mst"),
    ),
    "run_balanced_dom_on_forest": (
        "forest",
        tuple(f"repro.core.partition_{name}" for name in ("basic", "bounded", "fast")),
    ),
    "build_bfs_tree": ("bfs", ("repro.mst.pipeline",)),
    "run_pipeline": ("pipeline", ("repro.mst.fast_mst", "repro.mst.flood_collect")),
}
#: The arguments each kind's stages are recorded with.
ARITY = {"graph": 2, "tree": 4, "forest": 4, "bfs": 3, "pipeline": 4}
#: Held unspied: the spanning trees the ladders run on add forests only.
LADDERS = (dom_partition, dom_partition_1, dom_partition_2)
#: Pipeline over singleton fragments, with and without the red rule.
BASELINES = (pipeline_only_mst, flood_collect_mst)


def _key(args):
    """A hashable fingerprint of a stage's arguments: equal inputs get
    equal keys (graphs by nodes and weighted edges in order, member sets
    sorted)."""
    key = []
    for value in args:
        if isinstance(value, Graph):
            value = tuple(value.nodes), tuple(value.weighted_edges())
        elif isinstance(value, dict):
            value = tuple(
                (k, tuple(sorted(v)) if isinstance(v, set) else v)
                for k, v in value.items()
            )
        key.append(value)
    return tuple(key)


def spanning_tree(graph):
    """The BFS tree from the str-least node, as the partition workload
    roots its trees: ``(tree, root, parent)``."""
    root = min(graph.nodes, key=str)
    _dist, parent = bfs_tree(graph, root)
    tree = graph.edge_subgraph((v, p) for v, p in parent.items() if p is not None)
    return tree, root, parent


@functools.lru_cache(maxsize=None)
def perfbench(spec):
    """Every distinct call each stage receives over ``spec``'s cells at
    the traffic seeds, and from the earlier suites' drivers at theirs:
    SimpleMST on the weighted graph, the ladders on its spanning tree."""
    found = {kind: {} for kind, _modules in CALL_SITES.values()}

    def spy(stage, kind):
        signature = inspect.signature(stage)

        def record(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            args = tuple(call.arguments.values())[: ARITY[kind]]
            if kind == "forest":  # DOM_Partition reuses the member sets
                args = (args[0], {t: set(m) for t, m in args[1].items()}) + args[2:]
            found[kind].setdefault(_key(args), args)
            return stage(*args)

        return record

    cache = GraphCache()
    spies = {}
    with pytest.MonkeyPatch.context() as patch:
        for stage, (kind, modules) in CALL_SITES.items():
            for name in modules:
                module = importlib.import_module(name)
                spies[stage] = spy(getattr(module, stage), kind)
                patch.setattr(module, stage, spies[stage])
        for seed in SUITE_SEEDS:
            for k in KS if seed in TRAFFIC_SEEDS else ():
                for workload in PERFBENCH[spec]:
                    run = get_workload(workload)
                    graph = cache.get(spec, seed, weighted=run.weighted)
                    if workload != "partition" or k < graph.num_nodes:  # n >= k + 1
                        run.fn(graph, SweepCell(workload, spec, seed, k))
            for k in MST_KS:
                spies["simple_mst_forest"](cache.get(spec, seed, weighted=True), k)
            if "mst" in PERFBENCH[spec] and seed in TRAFFIC_SEEDS:
                for baseline in BASELINES:
                    baseline(cache.get(spec, seed, weighted=True))
            tree, root, parent = spanning_tree(cache.get(spec, seed))
            for ladder in LADDERS:
                for k in KS:
                    if k < tree.num_nodes:
                        ladder(tree, root, parent, k)
    return {kind: list(calls.values()) for kind, calls in found.items()}


def rooted(tree, root, k):
    """A ``tree`` input: ``tree`` rooted at ``root`` by BFS, and ``k``."""
    return tree, root, bfs_tree(tree, root)[1], k


#: Paths and stars, and their roots, by their test ids.
PATHS_AND_STARS = {
    "path-end": (path_graph(30), 0),
    "path-middle": (path_graph(31), 15),
    "star-centre": (star_graph(30), 0),
    "star-leaf": (star_graph(30), 7),
}
#: The trees the dense route was first checked on, by their test ids.
DENSE_TREES = [
    ("path", lambda: path_graph(65)),
    ("star", lambda: star_graph(48)),
    ("broom", lambda: broom_tree(25, 25)),
    ("caterpillar", lambda: caterpillar_tree(16, 3)),
    ("random-0", lambda: random_tree(90, seed=0)),
    ("random-1", lambda: random_tree(90, seed=1)),
]


def _disconnected():
    graph = Graph()
    for offset, seed in ((0, 1), (100, 3)):
        part = assign_unique_weights(random_connected_graph(20, 0.2, seed), seed)
        for u, v, w in part.weighted_edges():
            graph.add_edge(u + offset, v + offset, w + offset * 10**6)
    graph.add_node(999)
    return graph


def _str_order_differs():
    # Ids 0..1008 of mixed digit counts: str order is not int order, so
    # inbox order, CONNECT ties and output sorting all differ from int.
    base = assign_unique_weights(random_connected_graph(60, 0.08, seed=9), 10)
    return base.relabeled({v: v * 7919 % 1009 for v in base.nodes})


def _equal_weights():
    # Not a valid SimpleMST input, but the engine still runs it; ties
    # exercise every tie-break (and may leave a root-less cycle).
    graph = random_connected_graph(30, 0.15, seed=6)
    for u, v in list(graph.edges()):
        graph.set_weight(u, v, (u * v) % 3)
    return graph


#: SimpleMST inputs off production's path: a disconnected graph, ids
#: whose str order is not their int order, tied weights and no weights.
EDGE_CASES = {
    "disconnected": _disconnected,
    "str-order": _str_order_differs,
    "equal-weights": _equal_weights,
    "unweighted": functools.partial(random_connected_graph, 25, 0.2, seed=4),
}


@st.composite
def sparse_rooted_trees(draw):
    """A Prüfer tree relabelled into sparse ids, rooted at a drawn node,
    with a k the tree is large enough for."""
    tree = draw(pruefer_trees(min_nodes=2, max_nodes=60))
    nodes = sorted(tree.nodes)
    ids = draw(st.lists(st.integers(0, 5000), min_size=len(nodes), max_size=len(nodes), unique=True))
    tree = tree.relabeled(dict(zip(nodes, ids)))
    root = draw(st.sampled_from(sorted(tree.nodes)))
    return rooted(tree, root, draw(st.integers(1, min(12, tree.num_nodes - 1))))


@st.composite
def rooted_forests(draw):
    """Sparse-id forests as singleton clusters: a Prüfer tree relabelled
    into a larger id space, some edges cut, isolated nodes added (one
    of them may raise the id bound), each part rooted at a drawn node."""
    tree = draw(pruefer_trees(min_nodes=2, max_nodes=40))
    nodes = sorted(tree.nodes)
    ids = draw(st.lists(st.integers(0, 5000), min_size=len(nodes) + 2, max_size=len(nodes) + 2, unique=True))
    label = dict(zip(nodes, ids))
    forest = Graph()
    for v in ids[len(nodes):] + [draw(st.integers(0, 10**6))]:
        forest.add_node(v)
    edges = sorted(tree.edges())
    cut = draw(st.sets(st.integers(0, len(edges) - 1), max_size=3))
    for v in nodes:
        forest.add_node(label[v])
    for i, (u, v) in enumerate(edges):
        if i not in cut:
            forest.add_edge(label[u], label[v])
    parents = {}
    for v in sorted(forest.nodes):
        if v not in parents:
            component = sorted(bfs_tree(forest, v)[1])
            parents.update(bfs_tree(forest, draw(st.sampled_from(component)))[1])
    return forest, {v: {v} for v in forest.nodes}, parents, None


#: Paths, stars and grids for the Pipeline row, by their test ids.
PIPELINE_SHAPES = {
    "path": lambda: path_graph(30),
    "star": lambda: star_graph(30),
    "grid": lambda: grid_graph(6, 7),
}


@st.composite
def fragment_maps(draw, graph):
    """Singleton fragments, or up to six fragments drawn at random (not
    necessarily connected: Pipeline contracts whatever it is given)."""
    nodes = sorted(graph.nodes)
    if draw(st.booleans()):
        return {v: v for v in nodes}
    labels = draw(st.lists(st.integers(0, 5), min_size=len(nodes), max_size=len(nodes)))
    return dict(zip(nodes, labels))


@st.composite
def pipeline_inputs(draw, graphs=weighted_graphs(min_nodes=1, max_nodes=30)):
    """A ``pipeline`` input: a graph, its weights sometimes folded onto
    {0, 1, 2} so edges tie, a fragment map, a drawn root and the red
    rule on or off."""
    graph = draw(graphs)
    if draw(st.booleans()):
        graph = graph.copy()
        for u, v, w in list(graph.weighted_edges()):
            graph.set_weight(u, v, w % 3)
    root = draw(st.sampled_from(sorted(graph.nodes)))
    return graph, draw(fragment_maps(graph)), root, draw(st.booleans())
