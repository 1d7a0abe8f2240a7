"""E3 — Lemma 3.3: BalancedDOM runs in O(log* n) rounds.

The table shows round counts staying essentially flat while n grows by
three orders of magnitude, and the Definition 3.1 properties holding.
"""

import pytest

from repro.analysis import log_star
from repro.core import balanced_dom
from repro.graphs import RootedTree, random_tree
from repro.symmetry import cv_iterations
from repro.verify import is_dominating

from .harness import emit, run_once

SIZES = (32, 128, 512, 2048, 8192)


def sweep():
    rows = []
    rounds_seen = []
    for n in SIZES:
        g = random_tree(n, seed=n)
        rt = RootedTree.from_graph(g, 0)
        dominators, partition, net = balanced_dom(g, rt.parent)
        assert is_dominating(g, dominators)
        assert len(dominators) <= n // 2
        assert partition.min_cluster_size() >= 2
        rounds_seen.append(net.metrics.rounds)
        rows.append(
            [n, log_star(n), net.metrics.rounds, len(dominators), n // 2]
        )
    # Flatness: 256x more nodes may add only the rounds the
    # Cole–Vishkin schedule gains (one here: 3 iterations at n = 32,
    # 4 at n = 8192).
    drift = cv_iterations(SIZES[-1]) - cv_iterations(SIZES[0])
    assert rounds_seen[-1] - rounds_seen[0] <= drift
    return rows


@pytest.mark.benchmark(group="e03")
def test_e03_balanced_dom_rounds(benchmark):
    rows = run_once(benchmark, sweep)
    emit(
        "E3",
        "BalancedDOM rounds stay O(log* n) (Lemma 3.3)",
        ["n", "log*(n)", "rounds", "|D|", "floor(n/2)"],
        rows,
    )
