"""The §3.2 partition ladder: DOM_Partition_1 / _2 / fast."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dom_partition, dom_partition_1, dom_partition_2
from repro.graphs import (
    RootedTree,
    broom_tree,
    caterpillar_tree,
    cycle_graph,
    path_graph,
    random_tree,
    spider_tree,
    star_graph,
)
from repro.verify import check_partition

from ..conftest import pruefer_trees

ALGOS = [
    ("partition-1", dom_partition_1),
    ("partition-2", dom_partition_2),
    ("partition-fast", dom_partition),
]

TREES = [
    ("path", lambda: path_graph(64)),
    ("star", lambda: star_graph(64)),
    ("random", lambda: random_tree(120, seed=3)),
    ("caterpillar", lambda: caterpillar_tree(20, 3)),
    ("broom", lambda: broom_tree(30, 30)),
    ("spider", lambda: spider_tree(5, 15)),
]


@pytest.mark.parametrize("alg_name,algorithm", ALGOS)
@pytest.mark.parametrize("tree_name,factory", TREES)
@pytest.mark.parametrize("k", [1, 3, 7])
def test_size_guarantee(alg_name, algorithm, tree_name, factory, k):
    g = factory()
    rt = RootedTree.from_graph(g, 0)
    partition, _staged = algorithm(g, 0, rt.parent, k)
    report = check_partition(g, partition, min_cluster_size=k + 1)
    assert report, report.problems


@pytest.mark.parametrize("tree_name,factory", TREES)
@pytest.mark.parametrize("k", [1, 3, 7, 15])
def test_radius_bounds(tree_name, factory, k):
    g = factory()
    if g.num_nodes < k + 1:
        pytest.skip("tree smaller than k+1")
    rt = RootedTree.from_graph(g, 0)
    p1, _s = dom_partition_1(g, 0, rt.parent, k)
    assert check_partition(g, p1, max_cluster_radius=4 * k * k or 1)
    p2, _s = dom_partition_2(g, 0, rt.parent, k)
    assert check_partition(g, p2, max_cluster_radius=5 * k + 2)
    pf, _s = dom_partition(g, 0, rt.parent, k)
    assert check_partition(g, pf, max_cluster_radius=5 * k + 2)


class TestEdgeCases:
    def test_too_small_tree_rejected(self):
        g = path_graph(3)
        rt = RootedTree.from_graph(g, 0)
        for algorithm in (dom_partition_1, dom_partition_2, dom_partition):
            with pytest.raises(ValueError):
                algorithm(g, 0, rt.parent, 5)

    @pytest.mark.parametrize("shape", ["cycle", "two-paths"])
    def test_graph_that_is_not_a_tree_rejected(self, shape):
        # Depths and the contracted adjacency come from T-depths, which
        # only a tree gives.
        g = cycle_graph(8)
        if shape == "two-paths":
            g = path_graph(4)
            g.add_edge(10, 11)
            g.add_edge(11, 12)
        parent = {v: (v - 1 if v % 10 else None) for v in g.nodes}
        for algorithm in (dom_partition_1, dom_partition_2, dom_partition):
            with pytest.raises(ValueError, match="needs a tree"):
                algorithm(g, 0, parent, 2)

    def test_exact_size_k_plus_1(self):
        g = path_graph(8)
        rt = RootedTree.from_graph(g, 0)
        partition, _s = dom_partition(g, 0, rt.parent, 7)
        assert partition.num_clusters == 1
        assert partition.clusters[0].size == 8

    def test_k_zero_singletons(self):
        g = path_graph(5)
        rt = RootedTree.from_graph(g, 0)
        partition, staged = dom_partition(g, 0, rt.parent, 0)
        assert partition.num_clusters == 5
        assert staged.total_rounds == 0

    def test_nontrivial_root(self):
        g = random_tree(60, seed=8)
        root = 17
        rt = RootedTree.from_graph(g, root)
        partition, _s = dom_partition(g, root, rt.parent, 3)
        assert check_partition(g, partition, min_cluster_size=4)


class TestRoundScaling:
    def test_fast_variant_linear_in_k(self):
        g = path_graph(2000)
        rt = RootedTree.from_graph(g, 0)
        rounds = {}
        for k in (3, 7, 15, 31):
            _p, staged = dom_partition(g, 0, rt.parent, k)
            rounds[k] = staged.total_rounds
        # Doubling k should not much more than double the rounds.
        assert rounds[31] <= 16 * rounds[3]
        assert rounds[31] / rounds[3] >= 2  # and it genuinely grows

    def test_rounds_flat_in_n_for_fixed_k(self):
        k = 7
        rounds = []
        for n in (256, 2048):
            g = random_tree(n, seed=5)
            rt = RootedTree.from_graph(g, 0)
            _p, staged = dom_partition(g, 0, rt.parent, k)
            rounds.append(staged.total_rounds)
        # O(k log* n): 8x the nodes adds at most ~35% rounds.
        assert rounds[1] <= rounds[0] * 1.35 + 10


@settings(max_examples=15, deadline=None)
@given(pruefer_trees(min_nodes=8, max_nodes=40), st.integers(min_value=1, max_value=4))
def test_fast_partition_property(tree, k):
    if tree.num_nodes < k + 1:
        return
    rt = RootedTree.from_graph(tree, 0)
    partition, _staged = dom_partition(tree, 0, rt.parent, k)
    report = check_partition(
        tree, partition, min_cluster_size=k + 1, max_cluster_radius=5 * k + 2
    )
    assert report, report.problems
