"""Procedure SimpleMST (§4.1–4.4): the (k+1, n) forest of MST fragments."""

import pytest

from repro.core import simple_mst_forest, log2_phase_count
from repro.graphs import (
    assign_unique_weights,
    complete_graph,
    cycle_graph,
    grid_graph,
    random_connected_graph,
)
from repro.mst import kruskal_mst
from repro.verify import check_spanning_forest


def weighted(factory, seed):
    return assign_unique_weights(factory, seed=seed)


GRAPHS = [
    ("grid", weighted(grid_graph(7, 7), 1)),
    ("cycle", weighted(cycle_graph(45), 2)),
    ("dense", weighted(random_connected_graph(70, 0.15, seed=3), 4)),
    ("sparse", weighted(random_connected_graph(120, 0.02, seed=5), 6)),
    ("clique", weighted(complete_graph(14), 7)),
]


class TestLemma42Properties:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fragment_sizes(self, name, graph, k):
        _parents, fragments, _net = simple_mst_forest(graph, k)
        report = check_spanning_forest(graph, fragments, sigma=k + 1)
        assert report, report.problems

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_fragments_are_mst_subtrees(self, name, graph):
        parents, _fragments, _net = simple_mst_forest(graph, 3)
        mst = kruskal_mst(graph)
        for v, p in parents.items():
            if p is not None:
                assert (min(v, p), max(v, p)) in mst

    def test_fragment_count_bound(self):
        g = weighted(random_connected_graph(100, 0.05, seed=8), 9)
        for k in (1, 3, 7):
            _parents, fragments, _net = simple_mst_forest(g, k)
            assert len(fragments) <= max(1, 100 // (k + 1))


class TestLemma41Time:
    def test_rounds_linear_in_k(self):
        g = weighted(random_connected_graph(150, 0.04, seed=1), 2)
        rounds = {}
        for k in (3, 7, 15, 31):
            _p, _f, net = simple_mst_forest(g, k)
            rounds[k] = net.metrics.rounds
        # sum of 5*2^i+3 phases: roughly doubles per doubling of k.
        assert rounds[31] <= 3 * rounds[15]
        assert rounds[31] <= 12 * (31 + 1) + 40

    def test_rounds_independent_of_n(self):
        k = 7
        rounds = []
        for n, seed in ((100, 1), (800, 2)):
            g = weighted(random_connected_graph(n, 4.0 / n, seed=seed), seed)
            _p, _f, net = simple_mst_forest(g, k)
            rounds.append(net.metrics.rounds)
        assert rounds[0] == rounds[1]  # the schedule depends only on k


class TestStructure:
    def test_k_zero_singletons(self):
        g = weighted(cycle_graph(10), 1)
        parents, fragments, net = simple_mst_forest(g, 0)
        assert len(fragments) == 10
        assert net.metrics.rounds == 0

    def test_one_root_per_fragment(self):
        g = weighted(grid_graph(6, 6), 3)
        _parents, fragments, net = simple_mst_forest(g, 3)
        roots = {
            v
            for v in g.nodes
            if net.outputs()[v]["is_root"]
        }
        for fragment in fragments:
            assert len(fragment & roots) == 1

    def test_phase_count(self):
        assert log2_phase_count(0) == 0
        assert log2_phase_count(1) == 1
        assert log2_phase_count(3) == 2
        assert log2_phase_count(4) == 3
        assert log2_phase_count(7) == 3

    def test_children_parent_symmetry(self):
        g = weighted(random_connected_graph(60, 0.06, seed=4), 5)
        parents, _fragments, net = simple_mst_forest(g, 3)
        for v in g.nodes:
            for c in net.outputs()[v]["children"]:
                assert parents[c] == v

    def test_large_k_single_fragment_is_mst(self):
        g = weighted(random_connected_graph(40, 0.15, seed=6), 7)
        parents, fragments, _net = simple_mst_forest(g, 39)
        assert len(fragments) == 1
        edges = {
            (min(v, p), max(v, p))
            for v, p in parents.items()
            if p is not None
        }
        assert edges == kruskal_mst(g)


from hypothesis import given, settings
from hypothesis import strategies as st

from ..conftest import weighted_graphs


@settings(max_examples=15, deadline=None)
@given(weighted_graphs(min_nodes=4, max_nodes=30), st.integers(min_value=1, max_value=6))
def test_simplemst_property(graph, k):
    parents, fragments, _net = simple_mst_forest(graph, k)
    mst = kruskal_mst(graph)
    for v, p in parents.items():
        if p is not None:
            assert (min(v, p), max(v, p)) in mst
    report = check_spanning_forest(graph, fragments, sigma=min(k + 1, graph.num_nodes))
    assert report, report.problems


class TestFragmentIdentity:
    """§4.2's identity discussion: a node's believed fragment id may be
    outdated (it names an old root) but always names a member of the
    node's own fragment."""

    def test_believed_id_is_a_fragment_member(self):
        g = weighted(random_connected_graph(120, 0.04, seed=11), 12)
        _parents, fragments, net = simple_mst_forest(g, 7)
        owner = {}
        for fragment in fragments:
            for v in fragment:
                owner[v] = id(fragment)
        for fragment in fragments:
            for v in fragment:
                believed = net.outputs()[v]["fragment_id"]
                assert owner[believed] == owner[v], (v, believed)

    def test_believed_ids_never_cross_fragments(self):
        # Even a stale id never names a node of a *different* fragment
        # ("its main useful property is that it is different from the id
        # of any other fragment", §4.2).  Roots themselves may hold a
        # stale id when they won rootship after the last identity
        # broadcast — faithful to the paper.
        g = weighted(grid_graph(8, 8), 13)
        _parents, fragments, net = simple_mst_forest(g, 3)
        owner = {}
        for index, fragment in enumerate(fragments):
            for v in fragment:
                owner[v] = index
        for v in g.nodes:
            believed = net.outputs()[v]["fragment_id"]
            assert owner[believed] == owner[v]
