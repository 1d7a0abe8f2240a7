"""Distributed BFS (Procedure Initialize's engine)."""

import pytest

from repro.graphs import (
    Graph,
    bfs_distances,
    diameter,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from repro.primitives import build_bfs_tree
from repro.sim import FaultConfig, FaultInjector


CASES = [
    ("path", path_graph(25)),
    ("star", star_graph(25)),
    ("tree", random_tree(60, seed=1)),
    ("grid", grid_graph(6, 7)),
    ("dense", random_connected_graph(50, 0.2, seed=2)),
]


class TestBFSTree:
    @pytest.mark.parametrize("name,graph", CASES)
    def test_depths_exact(self, name, graph):
        parents, depths, _net = build_bfs_tree(graph, 0)
        assert depths == bfs_distances(graph, 0)

    @pytest.mark.parametrize("name,graph", CASES)
    def test_parents_form_bfs_tree(self, name, graph):
        parents, depths, _net = build_bfs_tree(graph, 0)
        for v, p in parents.items():
            if v == 0:
                assert p is None
            else:
                assert graph.has_edge(v, p)
                assert depths[p] == depths[v] - 1

    @pytest.mark.parametrize("name,graph", CASES)
    def test_tree_depth_and_t1_agree_globally(self, name, graph):
        _parents, depths, net = build_bfs_tree(graph, 0)
        m_values = set(net.output_field("tree_depth").values())
        t1_values = set(net.output_field("t1").values())
        assert m_values == {max(depths.values())}
        assert len(t1_values) == 1

    def test_rounds_linear_in_depth(self):
        g = path_graph(100)
        _p, _d, net = build_bfs_tree(g, 0)
        # wave + echo + M broadcast: about 3 tree depths.
        assert net.metrics.rounds <= 4 * diameter(g) + 5

    def test_single_node(self):
        g = Graph()
        g.add_node(0)
        parents, depths, net = build_bfs_tree(g, 0)
        assert parents == {0: None} and depths == {0: 0}

    def test_children_outputs_consistent(self):
        g = grid_graph(5, 5)
        parents, _depths, net = build_bfs_tree(g, 0)
        for v in g.nodes:
            for c in net.outputs()[v]["children"]:
                assert parents[c] == v

    def test_nontrivial_root(self):
        g = grid_graph(4, 6)
        root = 13
        _parents, depths, _net = build_bfs_tree(g, root)
        assert depths == bfs_distances(g, root)


class TestFaultedBFS:
    @pytest.mark.parametrize(
        "graph,drop_rate,rounds",
        [(grid_graph(3, 3), 0.1, 7), (grid_graph(5, 5), 0.1, 12), (path_graph(6), 0.2, 3)],
    )
    def test_lost_message_ends_the_run_when_quiet(self, graph, drop_rate, rounds):
        # A dropped WAVE or ECHO leaves its receiver waiting for good;
        # the run stops at the first round with nothing left to deliver
        # instead of exhausting the round budget.
        faults = FaultInjector(FaultConfig(drop_rate=drop_rate, seed=13))
        _parents, _depths, net = build_bfs_tree(graph, 0, faults=faults)
        assert net.metrics.dropped_messages > 0
        assert net.metrics.rounds == rounds
        assert not net.report().completed

    def test_delays_alone_still_complete(self):
        faults = FaultInjector(FaultConfig(delay_rate=0.3, max_delay=2, seed=3))
        parents, _depths, net = build_bfs_tree(grid_graph(4, 4), 0, faults=faults)
        assert net.metrics.rounds == 34 and net.report().completed
        assert len(parents) == 16
