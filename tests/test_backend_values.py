"""One backend vocabulary for the algorithms.

Every algorithm entry point that takes ``backend`` accepts exactly
``"reference"`` and ``"dense"``.  Any other value raises ``ValueError``,
also on inputs that return early (k = 0 for FastDOM_T, n <= k for
FastDOM_G), so a degenerate input cannot hide a bad value.  Where cells
run (``"inline"`` or ``"process"``) is a separate choice, made by sweep,
serve and portfolio.
"""

import pytest

from repro.core import dom_partition, fastdom_graph, fastdom_tree, tree_kdominating_set
from repro.graphs import RootedTree, assign_unique_weights, path_graph
from repro.primitives import build_bfs_tree

TREE = assign_unique_weights(path_graph(6), seed=1)
PARENT = RootedTree.from_graph(TREE, 0).parent
SMALL = assign_unique_weights(path_graph(3), seed=1)

ENTRY_POINTS = {
    "build_bfs_tree": lambda b: build_bfs_tree(TREE, 0, backend=b),
    "tree_kdominating_set": lambda b: tree_kdominating_set(
        TREE, 0, PARENT, 2, backend=b
    ),
    "dom_partition": lambda b: dom_partition(TREE, 0, PARENT, 2, backend=b),
    "fastdom_tree": lambda b: fastdom_tree(TREE, 0, PARENT, 2, backend=b),
    "fastdom_tree-k0": lambda b: fastdom_tree(TREE, 0, PARENT, 0, backend=b),
    "fastdom_graph": lambda b: fastdom_graph(TREE, 2, backend=b),
    "fastdom_graph-n-le-k": lambda b: fastdom_graph(SMALL, 5, backend=b),
}


@pytest.mark.parametrize("value", ["inline", "process", "bogus"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_other_values_are_rejected(call, value):
    with pytest.raises(ValueError, match=f"unknown backend '{value}'"):
        call(value)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_reference_is_accepted(call):
    call("reference")
