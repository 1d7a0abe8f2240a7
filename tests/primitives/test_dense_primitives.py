"""The dense BFS tree agrees with the event engine.

Every comparison checks the full observable surface the drivers read:
outputs, round count, and traffic metrics — the dense backend's
contract is *exact* equivalence, not approximation (see
docs/performance.md, fallback rules)."""

import pytest

from repro.graphs import (
    RootedTree,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from repro.primitives import build_bfs_tree
from repro.sim import FaultConfig, FaultInjector, Network

pytest.importorskip("numpy")

GRAPHS = [
    ("path", path_graph(40)),
    ("star", star_graph(30)),
    ("grid", grid_graph(6, 7)),
    ("tree", random_tree(120, seed=4)),
    ("sparse", random_connected_graph(80, 0.05, seed=2)),
]


def same_run(ref_net, dense_run):
    assert dense_run.metrics.rounds == ref_net.metrics.rounds
    assert (
        dense_run.metrics.traffic.messages == ref_net.metrics.traffic.messages
    )
    assert (
        dense_run.metrics.traffic.per_round == ref_net.metrics.traffic.per_round
    )
    assert dense_run.all_halted() and ref_net.metrics.all_halted


class TestBFS:
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_matches_reference(self, label, graph):
        ref_parents, ref_depths, ref_net = build_bfs_tree(
            graph, 0, backend="reference"
        )
        d_parents, d_depths, d_run = build_bfs_tree(graph, 0, backend="dense")
        assert d_parents == ref_parents
        assert d_depths == ref_depths
        same_run(ref_net, d_run)

    def test_faulted_run_falls_back_to_reference(self):
        # A fault plan is outside the dense contract: the dense entry
        # point must hand the run to the event engine, faults included.
        g = grid_graph(5, 5)
        config = FaultConfig(drop_rate=0.1, seed=13)
        d_parents, d_depths, d_net = build_bfs_tree(
            g, 0, backend="dense", faults=FaultInjector(config)
        )
        assert isinstance(d_net, Network)
        r_parents, r_depths, r_net = build_bfs_tree(
            g, 0, backend="reference", faults=FaultInjector(config)
        )
        assert d_parents == r_parents
        assert d_depths == r_depths
        assert d_net.metrics.rounds == r_net.metrics.rounds
