"""SimpleMST computed without the engine, against the engine reference.

Unobserved, :func:`simple_mst_forest` computes the forest phase by phase
instead of simulating :class:`SimpleMSTProgram`.  Every node's outputs
(stale fragment ids included) and the run metrics, per-round profile
included, must equal a plain engine run of the program; observed runs,
and word limits a payload may exceed, must still take the engine.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.batch.cache import GraphCache
from repro.core.spanning_forest import (
    SimpleMSTProgram,
    _components_from_parents,
    fragment_trees,
    simple_mst_forest,
)
from repro.graphs import Graph, assign_unique_weights, random_connected_graph
from repro.obs import CountingSubscriber, observe
from repro.sim import MessageTooLarge, Network, RoundLimitExceeded

from ..conftest import weighted_graphs

#: The graph specs of the perfbench ``sweep`` and ``serve`` workloads.
PERFBENCH_SPECS = (
    "tree:n=80",
    "random:n=80,p=0.06",
    "grid:8x10",
    "tree:n=16",
    "tree:n=24",
    "tree:n=32",
    "random:n=16,p=0.2",
    "random:n=24,p=0.15",
)


def engine_run(graph, k, word_limit=8):
    network = Network(graph, word_limit=word_limit)
    network.run(lambda ctx: SimpleMSTProgram(ctx, k))
    return network


def assert_matches_engine(graph, k):
    parents, fragments, network = simple_mst_forest(graph, k)
    assert not any(
        isinstance(program, SimpleMSTProgram)
        for program in network.programs.values()
    ), "the engine ran"
    reference = engine_run(graph, k)
    assert parents == reference.output_field("parent")
    assert fragments == _components_from_parents(parents)
    assert network.outputs() == reference.outputs()
    port, engine = network.metrics, reference.metrics
    assert port.to_dict() == engine.to_dict()
    assert list(port.traffic.per_round) == list(engine.traffic.per_round)


@pytest.mark.parametrize("spec", PERFBENCH_SPECS)
def test_perfbench_graphs(spec):
    cache = GraphCache()
    for seed in range(6):
        graph = cache.get(spec, seed, weighted=True)
        for k in (0, 1, 2, 3, 4, 8, 9, 20):
            assert_matches_engine(graph, k)


@pytest.mark.parametrize("spec", PERFBENCH_SPECS)
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
    assert_matches_engine(graph, k)


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


@pytest.mark.parametrize(
    "graph",
    [
        _disconnected(),
        _str_order_differs(),
        _equal_weights(),
        random_connected_graph(25, 0.2, seed=4),  # no weights at all
    ],
    ids=["disconnected", "str-order", "equal-weights", "unweighted"],
)
@pytest.mark.parametrize("k", [1, 3, 7, 12, 40])
def test_edge_case_graphs(graph, k):
    assert_matches_engine(graph, k)


def test_observed_run_emits_the_engine_events():
    graph = assign_unique_weights(random_connected_graph(30, 0.12, seed=2), 3)
    counts = []
    for run in (
        lambda: simple_mst_forest(graph, 5),
        lambda: engine_run(graph, 5),
    ):
        counter = CountingSubscriber()
        with observe(counter):
            run()
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["send"] > 0


def test_word_limit_too_small_raises_engine_error():
    graph = assign_unique_weights(random_connected_graph(30, 0.12, seed=2), 3)
    with pytest.raises(MessageTooLarge):
        simple_mst_forest(graph, 7, word_limit=2)


def test_schedule_past_round_budget_raises():
    graph = assign_unique_weights(random_connected_graph(5, 0.5, seed=2), 3)
    with pytest.raises(RoundLimitExceeded):
        simple_mst_forest(graph, 2**17)


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
