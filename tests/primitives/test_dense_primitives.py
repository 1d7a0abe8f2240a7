"""The BFS tree's direct and dense routes against its engine route: the
``build_bfs_tree`` row of the route table (tests/differential/routes.py).
The dense column is skipped when numpy does not import."""

import pytest

from repro.graphs import (
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from repro.primitives import build_bfs_tree
from repro.sim import FaultConfig, FaultInjector, Network
from repro.sim.dense import HAVE_NUMPY

from ..differential.corpus import PERFBENCH, perfbench
from ..differential.routes import ROUTES, check

GRAPHS = [
    ("path", path_graph(40)),
    ("star", star_graph(30)),
    ("grid", grid_graph(6, 7)),
    ("tree", random_tree(120, seed=4)),
    ("sparse", random_connected_graph(80, 0.05, seed=2)),
]

ROW = ROUTES["build_bfs_tree"]


class TestBFS:
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_matches_reference(self, label, graph):
        check(ROW, (graph, 0, 8))

    @pytest.mark.parametrize("spec", [s for s in PERFBENCH if "mst" in PERFBENCH[s]])
    def test_perfbench_graphs(self, spec):
        for args in perfbench(spec)["bfs"]:
            check(ROW, args)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")
    def test_faulted_run_falls_back_to_reference(self):
        # A fault plan is outside the dense contract: the dense entry
        # point must hand the run to the event engine, faults included.
        def run(backend):
            faults = FaultInjector(FaultConfig(delay_rate=0.3, max_delay=2, seed=3))
            return build_bfs_tree(grid_graph(4, 4), 0, backend=backend, faults=faults)

        *dense, network = run("dense")
        *reference, ref_network = run("reference")
        assert isinstance(network, Network) and dense == reference
        assert network.metrics.to_dict() == ref_network.metrics.to_dict()
        assert network.metrics.delayed_messages > 0
