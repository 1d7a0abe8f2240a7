"""E10 — §5.1 (Lemmas 5.1–5.5): Procedure Pipeline is fully pipelined
(zero stalls / ordering violations), finishes in O(N + Diam) rounds, and
produces the exact fragment-graph MST.  The ablation row disables the
cycle elimination, showing the Θ(m + Diam) cost the red rule avoids.
"""

import pytest

from repro.core import simple_mst_forest
from repro.graphs import (
    assign_unique_weights,
    cycle_graph,
    diameter,
    grid_graph,
    random_connected_graph,
)
from repro.mst import kruskal_mst, run_pipeline
from repro.obs import TraceBuffer, observe

from .harness import emit, run_once

GRAPHS = [
    ("grid-14x14", assign_unique_weights(grid_graph(14, 14), seed=1)),
    ("ring-200", assign_unique_weights(cycle_graph(200), seed=2)),
    (
        "dense-150",
        assign_unique_weights(random_connected_graph(150, 0.15, seed=3), seed=4),
    ),
]


def fragments_for(graph, k):
    parents, fragments, _net = simple_mst_forest(graph, k)
    fragment_of = {}
    for fragment in fragments:
        root = min(fragment, key=str)
        for v in fragment:
            fragment_of[v] = root
    tree_edges = {
        (min(v, p), max(v, p)) for v, p in parents.items() if p is not None
    }
    return fragment_of, tree_edges, len(fragments)


def edg_stalls(buffer):
    """Lemma 5.3 check against the engine's event stream: per node, the
    rounds carrying "EDG" upcasts must form a contiguous range — a gap
    is a stall the lemma proves cannot happen.  Unlike the programs' own
    ``pipelining_violations`` counters (self-reporting), this reads what
    the engine actually did.
    """
    send_rounds = {}
    for event in buffer.events:
        if event["kind"] == "send" and event["payload"][0] == "EDG":
            send_rounds.setdefault(event["node"], set()).add(event["round"])
    stalls = {}
    for node, rounds in send_rounds.items():
        missing = [
            r for r in range(min(rounds), max(rounds) + 1) if r not in rounds
        ]
        if missing:
            stalls[node] = missing
    return stalls


def sweep():
    rows = []
    for name, g in GRAPHS:
        d_g = diameter(g)
        fragment_of, tree_edges, n_fragments = fragments_for(g, 7)
        buffer = TraceBuffer()
        with observe(buffer):
            selected, staged, net = run_pipeline(g, fragment_of)
        combined = tree_edges | {(min(a, b), max(a, b)) for a, b in selected}
        assert combined == kruskal_mst(g)
        stream_stalls = edg_stalls(buffer)
        assert stream_stalls == {}, stream_stalls
        order = sum(o["order_violations"] for o in net.outputs().values())
        self_reported = sum(
            o["pipelining_violations"] for o in net.outputs().values()
        )
        assert self_reported == 0 and order == 0
        rows.append(
            [
                name,
                n_fragments,
                d_g,
                staged.total_rounds,
                6 * (n_fragments + d_g) + 30,
                len(stream_stalls),
                order,
            ]
        )
    return rows


def ablation():
    rows = []
    g = assign_unique_weights(random_connected_graph(120, 0.3, seed=5), seed=6)
    frag = {v: v for v in g.nodes}
    _s, staged_red, _n = run_pipeline(g, frag)
    _s2, staged_all, _n2 = run_pipeline(g, frag, eliminate_cycles=False)
    rows.append(["red rule on (Θ(N + D))", g.num_edges, staged_red.total_rounds])
    rows.append(["red rule off (Θ(m + D))", g.num_edges, staged_all.total_rounds])
    assert staged_all.total_rounds > staged_red.total_rounds
    return rows


@pytest.mark.benchmark(group="e10")
def test_e10_pipeline(benchmark):
    rows = run_once(benchmark, sweep)
    emit(
        "E10",
        "Pipeline: exact MST, zero stalls, O(N + Diam) rounds",
        ["workload", "N frags", "Diam", "rounds", "~6(N+D)", "stalls",
         "order viol."],
        rows,
    )


@pytest.mark.benchmark(group="e10")
def test_e10_red_rule_ablation(benchmark):
    rows = run_once(benchmark, ablation)
    emit(
        "E10",
        "cycle-elimination ablation (dense graph, singleton fragments)",
        ["variant", "m", "rounds"],
        rows,
    )
