"""FastDOM_T's cluster stages computed without the engine, against the
engine route.

Unobserved, on the reference backend with ``method="kdom-dp"``,
:func:`fastdom_tree` takes :func:`direct_cluster_kdom` instead of
simulating :class:`TreeKDomProgram` and :class:`NearestDominatorProgram`
in every DOM_Partition cluster.  Under an observation the engine runs
them, and that route is the reference: the dominator set (its iteration
order included), the partition's centre map and centres, the stage
breakdown, the message total and the combined metrics (per-round
profile included) must all be equal.  Clusters outside the port's
contract must still raise the engine's errors.
"""

import importlib
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import GraphCache
from repro.core.fastdom_graph import fastdom_graph
from repro.core.fastdom_tree import fastdom_tree
from repro.core.kdom_tree import (
    NearestDominatorProgram,
    TreeKDomProgram,
    direct_cluster_kdom,
)
from repro.core.partition_fast import dom_partition
from repro.graphs import Graph, bfs_tree, path_graph, star_graph
from repro.graphs.partition import Cluster, Partition
from repro.obs import CountingSubscriber, observe
from repro.sim import (
    MessageTooLarge,
    Network,
    NotANeighbor,
    ParallelRunError,
    RoundLimitExceeded,
    RunMetrics,
    UnserializablePayload,
)
from repro.sim.network import DEFAULT_MAX_ROUNDS
from repro.sim.runner import StagedRun

from ..conftest import pruefer_trees
from .test_simple_mst_port import PERFBENCH_SPECS

# ``repro.core`` re-exports the drivers under their modules' names.
fastdom_graph_module = importlib.import_module("repro.core.fastdom_graph")
fastdom_tree_module = importlib.import_module("repro.core.fastdom_tree")

KS = (1, 2, 3, 4, 5, 8, 13)


def outcome(result):
    dominators, partition, staged = result
    return (
        list(dominators),
        list(partition.center_of.items()),
        partition.centers,
        staged.breakdown(),
        staged.total_messages,
        staged.combined.to_dict(),
        list(staged.combined.traffic.per_round),
    )


def _engine_forbidden(*_args, **_kwargs):
    raise AssertionError("the cluster stages built a network")


def direct(tree, root, parent, k):
    """The port's route: unobserved, and failing if the engine runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastdom_tree_module, "Network", _engine_forbidden)
        return outcome(fastdom_tree(tree, root, parent, k))


def engine(tree, root, parent, k):
    with observe():
        return outcome(fastdom_tree(tree, root, parent, k))


def assert_matches_engine(tree, root, parent, k):
    assert direct(tree, root, parent, k) == engine(tree, root, parent, k)


def fastdom_graph_fragments(graph, k):
    """Every ``(tree, root, parent)`` FastDOM_G hands to FastDOM_T."""
    calls = []

    def spy(tree, root, parent, k, **kwargs):
        calls.append((tree, root, parent))
        return fastdom_tree(tree, root, parent, k, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastdom_graph_module, "fastdom_tree", spy)
        fastdom_graph(graph, k)
    return calls


@pytest.mark.parametrize("spec", PERFBENCH_SPECS)
def test_perfbench_fragment_trees(spec):
    cache = GraphCache()
    fragments = 0
    for seed in range(4):
        graph = cache.get(spec, seed, weighted=True)
        for k in KS:
            for tree, root, parent in fastdom_graph_fragments(graph, k):
                assert_matches_engine(tree, root, parent, k)
                fragments += 1
    assert fragments > 0


@st.composite
def sparse_rooted_trees(draw):
    """A Prüfer tree relabelled into sparse ids, rooted at a drawn node,
    with a k the tree is large enough for."""
    tree = draw(pruefer_trees(min_nodes=2, max_nodes=60))
    nodes = sorted(tree.nodes)
    ids = draw(
        st.lists(
            st.integers(0, 5000),
            min_size=len(nodes),
            max_size=len(nodes),
            unique=True,
        )
    )
    tree = tree.relabeled(dict(zip(nodes, ids)))
    root = draw(st.sampled_from(sorted(tree.nodes)))
    k = draw(st.integers(1, min(12, tree.num_nodes - 1)))
    _dist, parent = bfs_tree(tree, root)
    return tree, root, parent, k


@settings(max_examples=60, deadline=None)
@given(sparse_rooted_trees())
def test_sparse_tree_family(case):
    assert_matches_engine(*case)


PATHS_AND_STARS = [
    (path_graph(30), 0),
    (path_graph(31), 15),
    (star_graph(30), 0),
    (star_graph(30), 7),
]


@pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
@pytest.mark.parametrize(
    "tree,root",
    PATHS_AND_STARS,
    ids=["path-end", "path-middle", "star-centre", "star-leaf"],
)
def test_path_and_star(tree, root, k):
    _dist, parent = bfs_tree(tree, root)
    assert_matches_engine(tree, root, parent, k)


def fixed_partition(monkeypatch, clusters):
    """Make FastDOM_T's DOM_Partition return ``clusters`` as given."""
    monkeypatch.setattr(
        fastdom_tree_module,
        "dom_partition",
        lambda tree, root, t_parent, k: (
            Partition(Cluster(c, members) for c, members in clusters),
            StagedRun(),
        ),
    )
    return Partition(Cluster(c, members) for c, members in clusters)


def assert_engine_error(tree, t_parent, clusters, k, cause):
    assert direct_cluster_kdom(tree, t_parent, clusters, k) is None
    for context in (nullcontext(), observe()):
        with context, pytest.raises(ParallelRunError) as excinfo:
            fastdom_tree(tree, 0, t_parent, k)
        assert isinstance(excinfo.value.__cause__, cause)


def test_parent_outside_the_tree_raises_the_engine_error(monkeypatch):
    # T is the path 0-1-2-3, but the orientation claims 2's parent is 0.
    tree = path_graph(4)
    t_parent = {0: None, 1: 0, 2: 0, 3: 2}
    clusters = fixed_partition(monkeypatch, [(0, {0, 1, 2, 3})])
    assert_engine_error(tree, t_parent, clusters, 2, NotANeighbor)


def test_two_parentless_members_raise_the_engine_error(monkeypatch):
    # Node 3's parent 2 lies in another cluster, and so does nothing of
    # the cluster {0, 1, 3} connect 3 to its top 0.
    tree = path_graph(4)
    t_parent = {0: None, 1: 0, 2: 1, 3: 2}
    clusters = fixed_partition(monkeypatch, [(0, {0, 1, 3}), (2, {2})])
    assert_engine_error(tree, t_parent, clusters, 2, NotANeighbor)


def labelled_path(labels):
    tree = Graph()
    for u, v in zip(labels, labels[1:]):
        tree.add_edge(u, v)
    parent = dict(zip(labels[1:], labels))
    parent[labels[0]] = None
    return tree, parent


@pytest.mark.parametrize(
    "labels,cause",
    [
        ([c * 30 for c in "abcde"], UnserializablePayload),
        ([(i,) * 7 for i in range(5)], MessageTooLarge),
    ],
    ids=["long-string", "nine-word-payload"],
)
def test_ids_a_dom_message_cannot_carry_raise_the_engine_error(
    monkeypatch, labels, cause
):
    tree, t_parent = labelled_path(labels)
    clusters = fixed_partition(monkeypatch, [(labels[0], set(labels))])
    assert direct_cluster_kdom(tree, t_parent, clusters, 1) is None
    for context in (nullcontext(), observe()):
        with context, pytest.raises(ParallelRunError) as excinfo:
            fastdom_tree(tree, labels[0], t_parent, 1)
        assert isinstance(excinfo.value.__cause__, cause)


def test_string_ids_that_fit_take_the_port(monkeypatch):
    labels = ["n%02d" % i for i in range(12)]
    tree, t_parent = labelled_path(labels)
    fixed_partition(
        monkeypatch, [(labels[0], set(labels[:7])), (labels[7], set(labels[7:]))]
    )
    assert_matches_engine(tree, labels[0], t_parent, 2)


def test_k_beyond_the_round_budget_raises():
    tree, t_parent = labelled_path([0, 1, 2])
    with pytest.raises(RoundLimitExceeded):
        direct_cluster_kdom(
            tree, t_parent, [Cluster(0, {0, 1, 2})], DEFAULT_MAX_ROUNDS + 1
        )


def test_negative_k_is_rejected():
    tree, t_parent = labelled_path([0, 1])
    with pytest.raises(ValueError, match="non-negative"):
        direct_cluster_kdom(tree, t_parent, [Cluster(0, {0, 1})], -1)


@pytest.mark.parametrize(
    "cluster_sets,assignments,message",
    [
        ([set()], [{0: 0, 1: 0}], "empty dominating set"),
        ([{0}], [{0: 0, 1: None}], "no dominator within 1 hops"),
    ],
)
def test_driver_checks_the_port_result(
    monkeypatch, cluster_sets, assignments, message
):
    tree, t_parent = labelled_path([0, 1])
    fixed_partition(monkeypatch, [(0, {0, 1})])
    monkeypatch.setattr(
        fastdom_tree_module,
        "direct_cluster_kdom",
        lambda *args: (cluster_sets, RunMetrics(), assignments, RunMetrics()),
    )
    with pytest.raises(RuntimeError, match=message):
        fastdom_tree(tree, 0, t_parent, 1)


def test_observed_stages_emit_the_engine_events():
    tree = GraphCache().get("tree:n=32", 3)
    root = min(tree.nodes)
    _dist, t_parent = bfs_tree(tree, root)
    k = 3

    def reference():
        partition, _staged = dom_partition(tree, root, t_parent, k)
        for cluster in partition:
            members = cluster.members
            sub = tree.subgraph(members)
            parent = {
                v: t_parent[v] if t_parent[v] in members else None for v in members
            }
            top = next(v for v, p in parent.items() if p is None)
            dp = Network(sub)
            dp.run(lambda ctx: TreeKDomProgram(ctx, top, parent, k))
            flags = dp.output_field("in_dominating_set")
            Network(sub).run(
                lambda ctx: NearestDominatorProgram(ctx, flags[ctx.node], k)
            )

    counts = []
    for run in (lambda: fastdom_tree(tree, root, t_parent, k), reference):
        counter = CountingSubscriber()
        with observe(counter):
            run()
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["send"] > 0
