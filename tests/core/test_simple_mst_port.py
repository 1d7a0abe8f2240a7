"""SimpleMST's direct route against its engine route.

Unobserved, :func:`simple_mst_forest` computes the forest phase by phase
instead of simulating :class:`SimpleMSTProgram`.  These tests run the
``simple_mst_forest`` row of the route table (tests/differential/routes.py)
on its families and its rows of the error table.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.batch.cache import GraphCache
from repro.core.spanning_forest import fragment_trees, simple_mst_forest

from ..conftest import weighted_graphs
from ..differential.corpus import EDGE_CASES, PERFBENCH, perfbench
from ..differential.errors import SPARSE, raises
from ..differential.routes import ROUTES, check, check_family

ROW = ROUTES["simple_mst_forest"]


@pytest.mark.parametrize("spec", PERFBENCH)
def test_perfbench_graphs(spec):
    for args in perfbench(spec)["graph"]:
        check(ROW, args)


@pytest.mark.parametrize("spec", PERFBENCH)
def test_fragment_trees_match_the_induced_construction(spec):
    # fragment_trees builds each tree directly; it must keep the node
    # and adjacency order of the subgraph/edge_subgraph pair it replaced.
    cache = GraphCache()
    for seed in range(4):
        graph = cache.get(spec, seed, weighted=True)
        for k in (1, 2, 4, 8, 13):
            parents, fragments, _network = simple_mst_forest(graph, k)
            for fragment, tree, _root, fragment_parent in fragment_trees(
                graph, parents, fragments
            ):
                old = graph.subgraph(fragment).edge_subgraph(
                    (v, p) for v, p in fragment_parent.items() if p is not None
                )
                assert tree.nodes == old.nodes
                for v in old.nodes:
                    assert tree.neighbors(v) == old.neighbors(v)
                    for u in old.neighbors(v):
                        assert tree.weight(v, u) == old.weight(v, u)
                assert tree.provenance is old.provenance is None


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(min_nodes=1, max_nodes=30), st.integers(0, 12))
def test_weighted_graph_family(graph, k):
    # The BFS row runs on the same graphs, from the least id.
    check_family({"graph": [(graph, k)], "bfs": [(graph, min(graph.nodes), 8)]})


@pytest.mark.parametrize("graph", EDGE_CASES)
@pytest.mark.parametrize("k", [1, 3, 7, 12, 40])
def test_edge_case_graphs(graph, k):
    check(ROW, (EDGE_CASES[graph](), k))


def test_observed_run_emits_the_engine_events():
    check(ROW, (SPARSE, 5))


def test_word_limit_too_small_raises_engine_error(monkeypatch):
    raises("simple-mst-word-limit", monkeypatch)


def test_schedule_past_round_budget_raises(monkeypatch):
    raises("simple-mst-round-budget", monkeypatch)


def test_sweep_cells_leave_numpy_unimported():
    # numpy in a sweep or serve worker raises its peak RSS by ~10 MiB.
    code = (
        "import sys\n"
        "from repro.batch import SweepCell, run_cell\n"
        "run_cell(SweepCell('kdom', 'random:n=24,p=0.15', 0, 2))\n"
        "run_cell(SweepCell('mst', 'random:n=24,p=0.15', 0, 2))\n"
        "run_cell(SweepCell('partition', 'tree:n=24', 0, 2))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
