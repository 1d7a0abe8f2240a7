"""E2 — Lemma 2.3: Algorithm DiamDOM decides within 5*Diam(G) + k rounds,
with the k + 1 censuses fully pipelined (no edge collisions — enforced
by the simulator's congestion checker)."""

import pytest

from repro.core import diam_dom
from repro.graphs import (
    balanced_tree,
    diameter,
    grid_graph,
    path_graph,
    random_tree,
)

from .harness import emit, run_once

CASES = [
    ("path-128", path_graph(128)),
    ("path-512", path_graph(512)),
    ("binary-tree-h9", balanced_tree(2, 9)),
    ("random-tree-400", random_tree(400, seed=2)),
    ("grid-12x12", grid_graph(12, 12)),
]
KS = (1, 4, 16)


def sweep():
    rows = []
    for name, g in CASES:
        d_g = diameter(g)
        for k in KS:
            _d, _lvl, _counts, net = diam_dom(g, 0, k)
            decision = net.programs[0].output["decision_round"]
            _d2, _l2, _c2, net2 = diam_dom(g, 0, k, staggered_by_level=True)
            staggered = net2.programs[0].output["decision_round"]
            bound = 5 * d_g + k
            assert decision <= bound, (name, k, decision, bound)
            assert staggered <= decision
            rows.append(
                [name, g.num_nodes, d_g, k, decision, staggered, bound,
                 f"{decision / bound:.2f}"]
            )
    return rows


@pytest.mark.benchmark(group="e02")
def test_e02_diamdom_timing(benchmark):
    rows = run_once(benchmark, sweep)
    emit(
        "E2",
        "DiamDOM decision round vs the 5*Diam + k bound (Lemma 2.3; "
        "'staggered' = the remark's level-staggered schedule)",
        ["workload", "n", "Diam", "k", "decision", "staggered", "bound",
         "ratio"],
        rows,
    )
